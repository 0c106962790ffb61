"""Unit tests for the named-builder registries."""

import pickle

import pytest

from repro.errors import SpecError
from repro.spec.registry import (
    OBJECTIVES,
    PLATFORMS,
    SPACES,
    TIERS,
    WORKLOADS,
    Registry,
)


class TestRegistryMechanics:
    def test_register_returns_builder_unchanged(self):
        reg = Registry("widget")

        @reg.register("w")
        def make_widget():
            """Builds the test widget."""
            return 42

        assert make_widget() == 42
        assert reg.build("w") == 42
        assert reg.entry("w").doc == "Builds the test widget."

    def test_duplicate_registration_rejected(self):
        reg = Registry("widget")
        reg.register("w", lambda: 1)
        with pytest.raises(SpecError, match="duplicate widget"):
            reg.register("w", lambda: 2)

    def test_unknown_ref_lists_registered(self):
        reg = Registry("widget")
        reg.register("alpha", lambda: 1)
        with pytest.raises(SpecError,
                           match=r"\$\.x: unknown widget ref 'beta';"
                                 r" registered: \['alpha'\]"):
            reg.entry("beta", "$.x")

    def test_build_kwargs_may_shadow_name(self):
        reg = Registry("widget")
        reg.register("w", lambda name="w": name)
        assert reg.build("w", "$", name="other") == "other"

    def test_build_rejected_arguments_have_path(self):
        reg = Registry("widget")
        reg.register("w", lambda: 1)
        with pytest.raises(SpecError,
                           match=r"\$\.y: widget ref 'w' rejected"
                                 r" arguments \['bogus'\]"):
            reg.build("w", "$.y", bogus=3)

    def test_registration_order_preserved(self):
        reg = Registry("widget")
        for name in ("c", "a", "b"):
            reg.register(name, lambda: None)
        assert reg.names() == ["c", "a", "b"]
        assert list(reg.as_dict()) == ["c", "a", "b"]
        assert [e.name for e in reg.entries()] == ["c", "a", "b"]

    def test_container_protocol(self):
        reg = Registry("widget")
        reg.register("w", lambda: 1)
        assert "w" in reg and "x" not in reg
        assert list(reg) == ["w"] and len(reg) == 1


class TestBuiltinRegistries:
    def test_platform_catalog_entries(self):
        assert PLATFORMS.names() == [
            "embedded-cpu", "desktop-cpu", "embedded-gpu",
            "datacenter-gpu", "midrange-fpga", "gemm-engine",
        ]
        assert PLATFORMS.entry("gemm-engine").meta == {
            "programmable": False}
        assert PLATFORMS.entry("embedded-cpu").meta == {}

    def test_platform_builders_accept_name_override(self):
        cpu = PLATFORMS.build("embedded-cpu", "$", name="renamed")
        assert cpu.name == "renamed"

    def test_workloads_build_by_name(self):
        assert WORKLOADS.build("vio-navigation").name == \
            "vio-navigation"

    def test_objectives_are_picklable(self):
        for name in OBJECTIVES.names():
            fn = OBJECTIVES.get(name)
            assert pickle.loads(pickle.dumps(fn)) is fn

    def test_spaces_and_tiers(self):
        assert SPACES.build("codesign").size == 256
        ladder = TIERS.build("uav-ladder")
        assert [row[0] for row in ladder] == [
            "tier0", "tier1", "tier2", "tier3", "tier4"]
