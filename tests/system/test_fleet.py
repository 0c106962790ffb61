"""Unit tests for the vectorized fleet mission engine.

The load-bearing property is the equivalence contract: every rollout's
result must be *exactly equal* — strict dataclass equality, every field
— to per-rollout :func:`run_mission`.  The Monte Carlo layer is tested
for determinism, paired draws, grouping, and its in-process-only run.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw import uav_compute_tiers
from repro.hw.batch import is_soa_priceable
from repro.hw.platform import AnalyticalPlatform, PlatformConfig
from repro.kernels.planning import CircleWorld
from repro.system import courses
from repro.system.fleet import (
    FleetPerturbation,
    FleetRollout,
    FleetStudy,
    _first_count,
    ensure_course,
    run_fleet,
    tier_rollouts,
)
from repro.system.mission import (
    MissionConfig,
    plan_course,
    run_mission,
)
from repro.telemetry import MetricsRegistry, Tracer, use_tracer
from repro.telemetry.profiling import (
    get_alloc_meter,
    measure_allocations,
)


@pytest.fixture(scope="module")
def world():
    return CircleWorld.random(dim=2, n_obstacles=24, extent=60.0,
                              radius_range=(1.0, 2.5), seed=5,
                              keep_corners_free=3.0)


@pytest.fixture(scope="module")
def config(world):
    return MissionConfig(
        world=world,
        start=np.array([1.0, 1.0]),
        goal=np.array([58.0, 58.0]),
        laps=2,
    )


@pytest.fixture(scope="module")
def tiers():
    return uav_compute_tiers()


@pytest.fixture(scope="module")
def course(config):
    return plan_course(config)


class _OverriddenPlatform(AnalyticalPlatform):
    """Prices exactly like its parent but *overrides* estimate, so the
    SoA gate must refuse it and the fleet engine must go scalar."""

    def estimate(self, profile):
        return super().estimate(profile)


def _overridden_platform():
    platform = _OverriddenPlatform(PlatformConfig(
        name="contended-tier", peak_flops=2e11, scalar_flops=2e9,
        onchip_bytes=1e6, onchip_bw=4e11, offchip_bw=3e10,
        static_power_w=6.0))
    assert not is_soa_priceable(platform)
    return platform


def _assert_equal_to_scalar(fleet, course):
    for rollout, batch in zip(fleet.rollouts, fleet.results):
        scalar = run_mission(rollout.config, rollout.platform,
                             rollout.compute_mass_kg,
                             rollout.compute_power_w, course=course)
        assert batch == scalar, (
            rollout.name,
            [(f.name, getattr(scalar, f.name), getattr(batch, f.name))
             for f in dataclasses.fields(scalar)
             if getattr(scalar, f.name) != getattr(batch, f.name)])


class TestEquivalence:
    def test_ladder_equals_scalar_field_for_field(self, config, tiers,
                                                  course):
        fleet = run_fleet(tier_rollouts(config, tiers))
        assert fleet.batch_priced == len(tiers)
        assert fleet.scalar_fallback == 0
        _assert_equal_to_scalar(fleet, course)

    def test_battery_boundary_equals_scalar(self, config, tiers,
                                            course):
        # A pack too small for the patrol: every tier dies mid-course.
        lean = dataclasses.replace(
            config, battery=dataclasses.replace(config.battery,
                                                capacity_wh=0.5))
        fleet = run_fleet(tier_rollouts(lean, tiers))
        _assert_equal_to_scalar(fleet, plan_course(lean))
        assert all(r.failure_reason == "battery"
                   for r in fleet.results)

    def test_timeout_boundary_equals_scalar(self, config, tiers):
        rushed = dataclasses.replace(config, max_duration_s=10.0)
        fleet = run_fleet(tier_rollouts(rushed, tiers))
        _assert_equal_to_scalar(fleet, plan_course(rushed))
        assert all(r.failure_reason == "timeout"
                   for r in fleet.results)

    def test_timeout_exactly_on_step_grid(self, config, tiers):
        # max_duration an exact multiple of dt: the loop exits *at* the
        # boundary step, the closed form must agree.
        exact = dataclasses.replace(config, max_duration_s=5.0,
                                    time_step_s=0.05)
        fleet = run_fleet(tier_rollouts(exact, tiers))
        _assert_equal_to_scalar(fleet, plan_course(exact))
        assert all(r.mission_time_s == pytest.approx(5.0)
                   for r in fleet.results)

    def test_fallback_platform_equals_scalar(self, config, course):
        rollout = FleetRollout(name="contended", config=config,
                               platform=_overridden_platform(),
                               compute_mass_kg=0.3,
                               compute_power_w=12.0)
        fleet = run_fleet([rollout])
        assert fleet.batch_priced == 0
        assert fleet.scalar_fallback == 1
        _assert_equal_to_scalar(fleet, course)

    def test_mixed_population(self, config, tiers, course):
        rollouts = tier_rollouts(config, tiers)
        rollouts.append(FleetRollout(
            name="contended", config=config,
            platform=_overridden_platform(),
            compute_mass_kg=0.3, compute_power_w=12.0))
        fleet = run_fleet(rollouts)
        assert fleet.batch_priced == len(tiers)
        assert fleet.scalar_fallback == 1
        _assert_equal_to_scalar(fleet, course)

    def test_empty_population(self):
        fleet = run_fleet([])
        assert len(fleet) == 0
        assert fleet.batch_priced == 0
        assert fleet.scalar_fallback == 0

    def test_empty_tiers_rejected(self, config):
        with pytest.raises(ConfigurationError):
            tier_rollouts(config, [])


@pytest.fixture
def store(monkeypatch):
    """An empty course store for one test, with a count of plans."""
    plans = []

    def counting_plan(config):
        plans.append(None)  # holding the config would pin its world
        return plan_course(config)

    monkeypatch.setattr(courses, "_STORE", {})
    monkeypatch.setattr(courses, "plan_course", counting_plan)
    return plans


def _mission(seed=5, **changes):
    world = CircleWorld.random(dim=2, n_obstacles=12, extent=30.0,
                               radius_range=(1.0, 2.0), seed=seed,
                               keep_corners_free=3.0)
    fields = {"world": world, "start": np.array([1.0, 1.0]),
              "goal": np.array([28.0, 28.0]), **changes}
    return MissionConfig(**fields)


class TestCourseStore:
    def test_equal_worlds_share_one_entry(self, store):
        first, twin = _mission(), _mission()
        assert first.world is not twin.world
        assert ensure_course(twin) is ensure_course(first)
        assert len(store) == 1 and len(courses._STORE) == 1

    @pytest.mark.parametrize("changes", [
        {"world": CircleWorld.random(dim=2, n_obstacles=12, extent=30.0,
                                     radius_range=(1.0, 2.0), seed=6,
                                     keep_corners_free=3.0)},
        {"start": np.array([1.5, 1.0])},
        {"goal": np.array([27.0, 28.0])},
        {"robot_radius_m": 0.5},
        {"laps": 3},
    ], ids=["world", "start", "goal", "radius", "laps"])
    def test_any_planning_input_change_misses(self, store, changes):
        base = ensure_course(_mission())
        other = ensure_course(_mission(**changes))
        assert other is not base
        assert len(store) == 2

    def test_perturbations_outside_planning_hit(self, store):
        config = _mission()
        course = ensure_course(config)
        for changed in (dataclasses.replace(config, sensor_rate_hz=12.0),
                        dataclasses.replace(config, time_step_s=0.01)):
            assert ensure_course(changed) is course
        assert len(store) == 1

    def test_bound_evicts_oldest(self, store, monkeypatch):
        monkeypatch.setattr(courses, "COURSE_STORE_SIZE", 2)
        first, second, third = (_mission(laps=n) for n in (1, 2, 3))
        ensure_course(first)
        ensure_course(second)
        ensure_course(third)
        assert len(courses._STORE) == 2 and len(store) == 3
        ensure_course(second)
        ensure_course(third)
        assert len(store) == 3
        ensure_course(first)
        assert len(store) == 4

    def test_stored_course_is_read_only(self, store):
        course = ensure_course(_mission())
        for array in (course.waypoints, course.start,
                      course.cumulative_m):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_memo_asks_the_store_once_per_identity(self, store,
                                                   monkeypatch):
        keys = []
        content_key = courses._content_key
        monkeypatch.setattr(courses, "_content_key",
                            lambda c: keys.append(1) or content_key(c))
        config = _mission()
        memo = {}
        perturbed = [dataclasses.replace(config, sensor_rate_hz=r)
                     for r in (10.0, 20.0, 30.0)]
        found = {id(ensure_course(c, memo)) for c in perturbed}
        assert len(found) == 1 and len(keys) == 1

    def test_memo_never_aliases_a_recycled_id(self, store):
        memo = {}
        first = _mission(seed=5)
        course = ensure_course(first, memo)
        pinned = weakref.ref(first.world)
        del first
        gc.collect()
        # The memo keeps the world alive, so its id cannot be reused
        # by any world built while the memo lives.
        assert pinned() is not None
        for seed in (6, 7, 8):
            other = _mission(seed=seed)
            got = ensure_course(other, memo)
            assert got is not course
            assert np.array_equal(got.waypoints,
                                  plan_course(other).waypoints)

    def test_run_mission_resolves_through_the_store(self, store, tiers):
        config = _mission()
        _, platform, mass, power = tiers[0]
        run_mission(config, platform, mass, power)
        run_mission(config, platform, mass, power)
        assert len(store) == 1


def _plan_spans(tracer):
    return [span.args for span in tracer.spans
            if span.name == "fleet.plan"]


class TestPlanTrace:
    def test_cold_then_warm_study(self, store, tiers):
        study = FleetStudy(config=_mission(), tiers=tiers, trials=3,
                           seed=1)
        tracer = Tracer()
        with use_tracer(tracer):
            cold = study.run()
        assert _plan_spans(tracer) == [{"planned": 1, "reused": 0}]
        tracer = Tracer()
        with use_tracer(tracer):
            warm = study.run()
        assert _plan_spans(tracer) == [{"planned": 0, "reused": 1}]
        assert warm.to_rows() == cold.to_rows()


class TestTelemetry:
    def test_counters(self, config, tiers):
        metrics = MetricsRegistry()
        rollouts = tier_rollouts(config, tiers)
        rollouts.append(FleetRollout(
            name="contended", config=config,
            platform=_overridden_platform(),
            compute_mass_kg=0.3, compute_power_w=12.0))
        run_fleet(rollouts, metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["fleet.rollouts"]["value"] == len(rollouts)
        assert snapshot["fleet.batch_hits"]["value"] == len(tiers)
        assert snapshot["fleet.batch_fallbacks"]["value"] == 1


class TestAllocationAccounting:
    def test_result_reports_exact_bytes(self, config, tiers):
        fleet = run_fleet(tier_rollouts(config, tiers))
        assert fleet.alloc_bytes > 0
        assert fleet.alloc_bytes_per_rollout == \
            fleet.alloc_bytes / len(fleet)

    def test_meter_attributes_bytes_to_kernel_sites(self, config,
                                                    tiers):
        with measure_allocations() as meter:
            fleet = run_fleet(tier_rollouts(config, tiers))
        sites = meter.snapshot()
        assert sites["system.fleet.run_fleet"]["bytes"] == \
            fleet.alloc_bytes
        assert sites["system.fleet.run_fleet"]["arrays"] > 0
        assert sites["hw.batch.batch_estimate"]["bytes"] > 0
        assert meter.total_bytes() >= fleet.alloc_bytes

    def test_meter_disabled_by_default(self, config, tiers):
        meter = get_alloc_meter()
        before = dict(meter.snapshot())
        run_fleet(tier_rollouts(config, tiers))
        assert meter.snapshot() == before

    def test_alloc_bytes_counter_published(self, config, tiers):
        metrics = MetricsRegistry()
        fleet = run_fleet(tier_rollouts(config, tiers),
                          metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["fleet.alloc_bytes"]["value"] == \
            fleet.alloc_bytes

    def test_chunked_study_reports_same_bytes(self, config, tiers):
        study = FleetStudy(config=config, tiers=tiers, trials=6,
                           seed=2)
        whole = study.run()
        chunked = study.run(chunk_size=4)
        assert whole.fleet.alloc_bytes > 0
        assert chunked.fleet.alloc_bytes == whole.fleet.alloc_bytes


class TestFirstCount:
    def test_exact_multiples(self):
        counts = _first_count(np.array([0.5, 0.5]),
                              np.array([2.0, 2.25]), strict=False)
        assert counts.tolist() == [4.0, 5.0]

    def test_strict_at_exact_multiple(self):
        counts = _first_count(np.array([0.5]), np.array([2.0]),
                              strict=True)
        assert counts.tolist() == [5.0]

    def test_zero_target(self):
        assert _first_count(np.array([0.1]), np.array([0.0]),
                            strict=False).tolist() == [0.0]

    def test_infinite_target_never_reached(self):
        counts = _first_count(np.array([0.1]), np.array([np.inf]),
                              strict=False)
        assert counts.tolist() == [np.inf]

    def test_zero_unit_never_reaches_positive_target(self):
        counts = _first_count(np.array([0.0]), np.array([1.0]),
                              strict=False)
        assert counts.tolist() == [np.inf]

    def test_matches_bruteforce_loop(self):
        rng = np.random.default_rng(7)
        units = rng.uniform(1e-3, 2.0, size=200)
        targets = rng.uniform(0.0, 50.0, size=200)
        counts = _first_count(units, targets, strict=False)
        for unit, target, count in zip(units, targets, counts):
            n = 0
            while n * unit < target:
                n += 1
            assert count == n


class TestFleetStudy:
    def test_same_seed_reproduces(self, config, tiers):
        first = FleetStudy(config=config, tiers=tiers, trials=6,
                           seed=3).run()
        second = FleetStudy(config=config, tiers=tiers, trials=6,
                            seed=3).run()
        assert first.fleet.results == second.fleet.results
        assert first.statistics == second.statistics

    def test_different_seed_differs(self, config, tiers):
        base = FleetStudy(config=config, tiers=tiers, trials=6,
                          seed=3).run()
        other = FleetStudy(config=config, tiers=tiers, trials=6,
                           seed=4).run()
        assert base.fleet.results != other.fleet.results

    def test_rollouts_equal_scalar(self, config, tiers, course):
        study = FleetStudy(config=config, tiers=tiers, trials=4,
                           seed=1)
        _assert_equal_to_scalar(study.run().fleet, course)

    def test_paired_draws_shared_across_tiers(self, config, tiers):
        study = FleetStudy(config=config, tiers=tiers, trials=3,
                           seed=0)
        rollouts = study.rollouts()
        assert len(rollouts) == 3 * len(tiers)
        for trial in range(3):
            block = rollouts[trial * len(tiers):
                             (trial + 1) * len(tiers)]
            assert len({id(r.config) for r in block}) == 1

    def test_statistics_grouping(self, config, tiers):
        result = FleetStudy(config=config, tiers=tiers, trials=5,
                            seed=0).run()
        assert [s.tier for s in result.statistics] == \
            [name for name, _, _, _ in tiers]
        assert all(s.trials == 5 for s in result.statistics)
        for s in result.statistics:
            assert s.mission_time_p50_s <= s.mission_time_p90_s \
                <= s.mission_time_p99_s
            failed = sum(s.failure_counts.values())
            assert failed == round((1.0 - s.success_rate) * s.trials)

    def test_best_tier_prefers_success_then_speed(self, config, tiers):
        result = FleetStudy(config=config, tiers=tiers, trials=4,
                            seed=0).run()
        best = result.best_tier()
        top = max(s.success_rate for s in result.statistics)
        assert best.success_rate == top
        assert best.mission_time_p50_s == min(
            s.mission_time_p50_s for s in result.statistics
            if s.success_rate == top)

    def test_zero_width_perturbation_pins_axes(self, config, tiers):
        study = FleetStudy(
            config=config, tiers=tiers, trials=3, seed=0,
            perturbation=FleetPerturbation(
                battery_capacity=0.0, payload_mass=0.0,
                sensor_rate=0.0, workload_scale=0.0))
        assert np.all(study.factors() == 1.0)
        result = study.run()
        # With nothing perturbed, trials are identical per tier.
        for s in result.statistics:
            assert s.mission_time_p50_s == s.mission_time_p99_s

    def test_perturbation_width_validated(self):
        with pytest.raises(ConfigurationError):
            FleetPerturbation(battery_capacity=1.0)
        with pytest.raises(ConfigurationError):
            FleetPerturbation(workload_scale=-0.1)

    def test_trials_validated(self, config, tiers):
        with pytest.raises(ConfigurationError):
            FleetStudy(config=config, tiers=tiers, trials=0)

    def test_json_rows(self, config, tiers):
        result = FleetStudy(config=config, tiers=tiers, trials=3,
                            seed=0).run()
        rows = result.to_rows()
        assert len(rows) == len(tiers)
        assert {"tier", "trials", "success_rate",
                "mission_time_p50_s"} <= set(rows[0])
