"""Shared fixtures for the repro test suite, and its hypothesis profiles.

Two hypothesis profiles, chosen by ``HYPOTHESIS_PROFILE``:

- ``default``: derandomized (examples derive from each test's own
  code, and no example database is read), so a tier-1 verdict depends
  only on the code.  Every test keeps its own ``max_examples``.
- ``deep``: random, with 10x each test's ``max_examples``, for a
  separate job that hunts new counterexamples.  Each one it finds is
  pinned with an ``@example`` so the default profile checks it too.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core.profile import DivergenceClass, WorkloadProfile
from repro.hw import embedded_cpu, embedded_gpu, midrange_fpga
from repro.kernels.planning.occupancy import CircleWorld

#: ``deep`` runs this many times each test's ``max_examples``.
DEEP_FACTOR = 10

settings.register_profile("default", derandomize=True)
settings.register_profile("deep", derandomize=False, deadline=None,
                          print_blob=True)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
settings.load_profile(PROFILE)


def pytest_collection_modifyitems(items):
    """Under ``deep``, scale every hypothesis test's ``max_examples``
    (its own ``@settings`` value, else the profile's) by
    :data:`DEEP_FACTOR`.  A ``@settings`` decorator overrides a
    profile's ``max_examples``, so this is set on the test itself;
    parametrized tests share one function and are scaled once."""
    if PROFILE != "deep":
        return
    scaled = set()
    for item in items:
        test = getattr(getattr(item, "obj", None), "__func__",
                       getattr(item, "obj", None))
        current = getattr(test, "_hypothesis_internal_use_settings", None)
        if current is None or not hasattr(test, "hypothesis") \
                or id(test) in scaled:
            continue
        scaled.add(id(test))
        test._hypothesis_internal_use_settings = settings(
            current, max_examples=current.max_examples * DEEP_FACTOR)


@pytest.fixture
def gemm_profile_512() -> WorkloadProfile:
    """A 512^3 GEMM profile (compute-bound on most platforms)."""
    n = 512
    return WorkloadProfile(
        name="gemm-512",
        flops=2.0 * n ** 3,
        bytes_read=2.0 * 8 * n * n,
        bytes_written=8.0 * n * n,
        working_set_bytes=3.0 * 8 * n * n,
        parallel_fraction=1.0,
        divergence=DivergenceClass.NONE,
        op_class="gemm",
    )


@pytest.fixture
def streaming_profile() -> WorkloadProfile:
    """A memory-bound streaming profile (low arithmetic intensity)."""
    return WorkloadProfile(
        name="stream",
        flops=1e6,
        bytes_read=64e6,
        bytes_written=64e6,
        working_set_bytes=128e6,
        parallel_fraction=0.99,
        divergence=DivergenceClass.NONE,
        op_class="stencil",
    )


@pytest.fixture
def divergent_profile() -> WorkloadProfile:
    """A branchy, serial profile (tree search class)."""
    return WorkloadProfile(
        name="search",
        flops=1e7,
        int_ops=5e7,
        bytes_read=1e7,
        bytes_written=1e6,
        working_set_bytes=8e6,
        parallel_fraction=0.3,
        divergence=DivergenceClass.HIGH,
        op_class="search",
    )


@pytest.fixture
def cpu():
    return embedded_cpu()


@pytest.fixture
def gpu():
    return embedded_gpu()


@pytest.fixture
def fpga():
    return midrange_fpga()


@pytest.fixture
def small_world() -> CircleWorld:
    """A reproducible 2-D world with a guaranteed free corridor."""
    return CircleWorld.random(dim=2, n_obstacles=20, extent=10.0,
                              seed=7, keep_corners_free=1.5)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
