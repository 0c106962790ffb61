"""Unit tests for reference pinning and regression tracking."""

import pytest

from repro.benchmarksuite.reference import (
    check_against_reference,
    compute_reference,
    load_reference,
    save_reference,
)
from repro.errors import BenchmarkError


@pytest.fixture(scope="module")
def reference():
    return compute_reference()


class TestComputeReference:
    def test_covers_standard_suite(self, reference):
        from repro.spec.registry import WORKLOADS
        assert set(reference) == set(WORKLOADS.names())
        assert all(v > 0 for v in reference.values())

    def test_deterministic(self, reference):
        assert compute_reference() == reference


class TestCheck:
    def test_identical_results_pass(self, reference):
        assert check_against_reference(reference, reference) == []

    def test_slowdown_flagged_as_regression(self, reference):
        measured = dict(reference)
        key = next(iter(measured))
        measured[key] *= 1.5
        drifts = check_against_reference(measured, reference)
        assert len(drifts) == 1
        assert drifts[0].workload == key
        assert drifts[0].kind == "regression"
        assert drifts[0].ratio == pytest.approx(1.5)

    def test_speedup_flagged_as_suspicious(self, reference):
        measured = dict(reference)
        key = next(iter(measured))
        measured[key] *= 0.5
        drifts = check_against_reference(measured, reference)
        assert drifts[0].kind == "suspicious-speedup"

    def test_within_tolerance_passes(self, reference):
        measured = {k: v * 1.03 for k, v in reference.items()}
        assert check_against_reference(measured, reference,
                                       tolerance=0.05) == []

    def test_worst_drift_first(self, reference):
        measured = dict(reference)
        keys = list(measured)
        measured[keys[0]] *= 1.2
        measured[keys[1]] *= 2.0
        drifts = check_against_reference(measured, reference)
        assert drifts[0].workload == keys[1]

    def test_workload_set_mismatch_raises(self, reference):
        measured = dict(reference)
        measured.pop(next(iter(measured)))
        with pytest.raises(BenchmarkError, match="differ"):
            check_against_reference(measured, reference)


class TestPersistence:
    def test_round_trip(self, reference, tmp_path):
        path = str(tmp_path / "reference.json")
        save_reference(reference, path)
        loaded = load_reference(path)
        assert loaded == pytest.approx(reference)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(BenchmarkError):
            load_reference(str(path))
