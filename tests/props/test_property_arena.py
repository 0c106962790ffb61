"""Property-based contract for the arena-backed memory layer.

**Arena reuse is invisible** (strict: bit-for-bit, not approximate).
A single :class:`BatchArena` carried across generations of *varying*
population sizes — including shrink-then-grow sequences that exercise
both the reuse path and the capacity-doubling growth path — produces
outputs bit-identical to fresh allocation, for both the SoA pricing
kernel (:func:`repro.hw.batch.batch_estimate`) and the fleet engine
(:func:`repro.system.fleet.run_fleet`).  Arena buffers are undefined at
handoff, so any read-before-write bug in a kernel shows up here as
stale data from the *previous* generation leaking into this one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import DivergenceClass, WorkloadProfile
from repro.engine.arena import BatchArena
from repro.hw.batch import PlatformSoA, ProfileSoA, batch_estimate
from repro.hw.catalog import uav_compute_tiers
from repro.kernels.planning import CircleWorld
from repro.system.fleet import FleetStudy, run_fleet
from repro.system.mission import MissionConfig

_TIERS = uav_compute_tiers()
_PLATFORMS = PlatformSoA.from_platforms([t[1] for t in _TIERS])

_count = st.floats(min_value=0.0, max_value=1e14, allow_nan=False)
_profile = st.builds(
    WorkloadProfile,
    name=st.just("prop"),
    flops=_count,
    int_ops=_count,
    bytes_read=_count,
    bytes_written=_count,
    working_set_bytes=st.floats(min_value=0.0, max_value=1e9,
                                allow_nan=False),
    parallel_fraction=st.floats(min_value=0.0, max_value=1.0),
    divergence=st.sampled_from(list(DivergenceClass)),
)
#: Generations of varying width: 1..8 profiles each, 2..5 generations.
#: Hypothesis shrinks toward short/narrow, but the size floor still
#: forces shrink-then-grow orderings through the arena.
_generations = st.lists(st.lists(_profile, min_size=1, max_size=8),
                        min_size=2, max_size=5)


def _freeze(cost):
    """Copy a (possibly arena-borrowed) BatchCost into owned arrays so
    it survives the next kernel call on the same arena."""
    return (cost.latency_s.copy(), cost.energy_j.copy(),
            cost.power_w.copy(), cost.bound.copy(),
            cost.area_mm2.copy())


@settings(max_examples=60, deadline=None)
@given(generations=_generations)
def test_arena_reuse_bit_identical_batch_estimate(generations):
    arena = BatchArena()
    for profiles in generations:
        soa = ProfileSoA.from_profiles(profiles)
        reused = _freeze(batch_estimate(_PLATFORMS, soa, arena=arena))
        fresh = _freeze(batch_estimate(_PLATFORMS, soa))
        for got, want in zip(reused, fresh):
            np.testing.assert_array_equal(got, want, strict=True)
    # Varying widths must have exercised reuse, not just growth.
    assert arena.grows + arena.reuses >= len(generations)


# -- fleet generations --------------------------------------------------

_WORLD = CircleWorld.random(dim=2, n_obstacles=10, extent=25.0,
                            radius_range=(1.0, 2.0), seed=4,
                            keep_corners_free=3.0)
_BASE = MissionConfig(world=_WORLD, start=np.array([1.0, 1.0]),
                      goal=np.array([23.0, 23.0]))

#: A pool of perturbed studies; generations draw rollout prefixes of
#: varying length from it so population size changes across calls.
_POOL = FleetStudy(
    config=_BASE, tiers=_TIERS, trials=6, seed=11).rollouts()


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(
    st.integers(min_value=1, max_value=len(_POOL)),
    min_size=2, max_size=4))
def test_arena_reuse_bit_identical_run_fleet(sizes):
    arena = BatchArena()
    for size in sizes:
        rollouts = _POOL[:size]
        reused = run_fleet(rollouts, arena=arena)
        fresh = run_fleet(rollouts)
        # MissionResult is a plain dataclass of Python scalars: strict
        # equality is bit-identity here.
        assert reused.results == fresh.results
        assert reused.alloc_bytes == fresh.alloc_bytes


def test_shrink_then_grow_never_corrupts():
    """A deliberate worst case: wide, then narrow (stale tail bytes in
    every buffer), then wide again (growth re-allocation mid-sequence)."""
    arena = BatchArena()
    for size in (12, 1, 12, 3, len(_POOL)):
        rollouts = _POOL[:size]
        reused = run_fleet(rollouts, arena=arena)
        fresh = run_fleet(rollouts)
        assert reused.results == fresh.results
    assert arena.grows >= 1 and arena.reuses >= 1
