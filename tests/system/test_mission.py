"""Unit tests for closed-loop missions (the §2.4 experiment core)."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw import uav_compute_tiers
from repro.kernels.planning import CircleWorld
from repro.system.mission import (
    MissionConfig,
    MissionResult,
    default_frame_profile,
    pipeline_latency_s,
    plan_course,
    run_mission,
    sweep_compute_tiers,
)


@pytest.fixture(scope="module")
def world():
    return CircleWorld.random(dim=2, n_obstacles=40, extent=120.0,
                              radius_range=(1.0, 3.0), seed=11,
                              keep_corners_free=3.0)


@pytest.fixture(scope="module")
def config(world):
    return MissionConfig(
        world=world,
        start=np.array([1.0, 1.0]),
        goal=np.array([118.0, 118.0]),
        laps=20,
    )


@pytest.fixture(scope="module")
def tiers():
    return uav_compute_tiers()


@pytest.fixture(scope="module")
def sweep(config, tiers):
    return sweep_compute_tiers(config, tiers)


class TestFrameProfile:
    def test_dnn_class_magnitude(self):
        profile = default_frame_profile()
        assert 0.5e9 < profile.flops < 10e9

    def test_scale(self):
        assert default_frame_profile(2.0).flops == pytest.approx(
            2.0 * default_frame_profile().flops
        )

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            default_frame_profile(0.0)


class TestPipelineLatency:
    def test_faster_platform_lower_latency(self, tiers):
        profile = default_frame_profile()
        weak = pipeline_latency_s(tiers[0][1], profile, 30.0, 0.02)
        strong = pipeline_latency_s(tiers[3][1], profile, 30.0, 0.02)
        assert weak > strong

    def test_staleness_penalty_when_compute_slow(self, tiers):
        profile = default_frame_profile()
        weak_platform = tiers[0][1]
        compute = weak_platform.estimate(profile).latency_s
        latency = pipeline_latency_s(weak_platform, profile, 30.0, 0.0)
        period = 1.0 / 30.0
        assert compute > period  # premise: tier0 can't keep up
        assert latency == pytest.approx(
            0.5 * period + compute + (compute - period)
        )


class TestMissionShape:
    """The Krishnan et al. U-shape, asserted."""

    def test_underprovisioned_tier_fails(self, sweep):
        name, result = sweep[0]
        assert not result.success
        assert result.failure_reason == "battery"
        assert result.safe_speed_m_s < 3.0  # crawling

    def test_overprovisioned_tier_fails(self, sweep):
        name, result = sweep[-1]
        assert not result.success
        assert result.failure_reason == "battery"
        assert result.safe_speed_m_s > 9.0  # fast but short-lived

    def test_middle_tier_succeeds(self, sweep):
        assert any(result.success for _, result in sweep[1:4])

    def test_best_energy_is_interior(self, sweep):
        successes = [(name, r) for name, r in sweep if r.success]
        assert successes
        best = min(successes, key=lambda pair: pair[1].energy_j)
        assert best[0] not in (sweep[0][0], sweep[-1][0])

    def test_endurance_monotone_decreasing(self, sweep):
        endurances = [r.endurance_s for _, r in sweep]
        assert endurances == sorted(endurances, reverse=True)

    def test_safe_speed_monotone_nondecreasing(self, sweep):
        speeds = [r.safe_speed_m_s for _, r in sweep]
        assert all(b >= a - 1e-9 for a, b in zip(speeds, speeds[1:]))


class TestMissionMechanics:
    def test_successful_mission_distance(self, config, tiers):
        _, platform, mass, power = tiers[1]
        result = run_mission(config, platform, mass, power)
        assert result.success
        # 20 laps over a ~167 m course.
        assert result.distance_m > 2000.0
        assert result.mean_speed_m_s == pytest.approx(
            result.safe_speed_m_s, rel=0.05
        )

    def test_energy_never_exceeds_budget(self, config, tiers):
        for _, platform, mass, power in tiers:
            result = run_mission(config, platform, mass, power)
            assert result.energy_j <= \
                config.battery.usable_energy_j + 1.0

    def test_single_lap_config(self, world, tiers):
        config = MissionConfig(
            world=world, start=np.array([1.0, 1.0]),
            goal=np.array([118.0, 118.0]), laps=1,
        )
        _, platform, mass, power = tiers[2]
        result = run_mission(config, platform, mass, power)
        assert result.success
        assert result.distance_m < 400.0

    def test_invalid_laps(self, world):
        with pytest.raises(ConfigurationError):
            MissionConfig(world=world, start=np.zeros(2),
                          goal=np.ones(2), laps=0)

    def test_missions_per_charge(self, config, tiers):
        _, platform, mass, power = tiers[1]
        result = run_mission(config, platform, mass, power)
        assert result.missions_per_charge() > 1.0


def _result(**overrides):
    """A healthy successful mission, overridable per degenerate case."""
    base = dict(
        success=True, failure_reason="", mission_time_s=100.0,
        distance_m=500.0, energy_j=5_000.0, mean_speed_m_s=5.0,
        safe_speed_m_s=5.0, pipeline_latency_s=0.1,
        compute_power_w=10.0, hover_power_w=90.0, total_mass_kg=2.0,
        endurance_s=600.0,
    )
    base.update(overrides)
    return MissionResult(**base)


class TestMissionsPerChargeGuards:
    """Degenerate inputs must produce 0 / inf, never NaN."""

    def test_healthy_value(self):
        # usable = 600 s * 100 W = 60 kJ; 5 kJ per mission.
        assert _result().missions_per_charge() == pytest.approx(12.0)

    def test_failed_mission_scores_zero(self):
        failed = _result(success=False, failure_reason="battery")
        assert failed.missions_per_charge() == 0.0

    def test_free_mission_is_unlimited(self):
        assert _result(energy_j=0.0).missions_per_charge() == \
            float("inf")

    def test_zero_power_tier_is_unlimited_not_nan(self):
        # inf endurance * 0 W would be NaN without the guard.
        ghost = _result(endurance_s=float("inf"), hover_power_w=0.0,
                        compute_power_w=0.0)
        value = ghost.missions_per_charge()
        assert value == float("inf")
        assert value == value  # not NaN


class TestCourseReuse:
    """plan_course is hoisted: precomputed courses must change nothing
    but the planning cost."""

    def test_precomputed_course_identical_result(self, config, tiers):
        course = plan_course(config)
        for _, platform, mass, power in tiers:
            fresh = run_mission(config, platform, mass, power)
            reused = run_mission(config, platform, mass, power,
                                 course=course)
            assert reused == fresh

    def test_sweep_accepts_precomputed_course(self, config, tiers,
                                              sweep):
        course = plan_course(config)
        assert sweep_compute_tiers(config, tiers, course=course) == \
            sweep

    def test_course_geometry(self, config):
        course = plan_course(config)
        assert len(course) > 0
        gaps = np.diff(course.cumulative_m, prepend=0.0)
        assert np.all(gaps >= 0.0)
        assert course.total_length_m == pytest.approx(
            course.cumulative_m[-1])
        # 20 laps over a ~167 m loop.
        assert course.total_length_m > 2000.0

    def test_empty_tiers_rejected(self, config):
        with pytest.raises(ConfigurationError):
            sweep_compute_tiers(config, [])


#: sha256 of ``waypoints.tobytes()`` for the planned courses of two
#: shipped scenarios, recorded from the tuple-keyed scalar A* and
#: full-grid rasterizer the flat-index planner replaced.
_GOLDEN_COURSES = {
    "fleet_montecarlo":
        "fa2179e1404f96feb854b18585fd54222ed4244e5ba5cc2e75ac2cb210d6515f",
    "mission_setting":
        "eddb4272f5d71652b9e8f23f9b51d34e957713e446031837fef7d59621a752fc",
}


class TestGoldenCourses:
    """The planner's speed-ups never move a waypoint."""

    @staticmethod
    def _digest(course) -> str:
        return hashlib.sha256(course.waypoints.tobytes()).hexdigest()

    def test_fleet_montecarlo_scenario(self):
        from repro.spec import load_scenario

        path = (Path(__file__).resolve().parents[2] / "examples"
                / "scenarios" / "fleet_montecarlo.json")
        config = load_scenario(str(path)).run.config
        assert self._digest(plan_course(config)) == \
            _GOLDEN_COURSES["fleet_montecarlo"]

    def test_default_mission_setting(self):
        from repro.dse.objectives import mission_setting

        config, course = mission_setting()
        assert self._digest(course) == _GOLDEN_COURSES["mission_setting"]
        assert self._digest(plan_course(config)) == \
            _GOLDEN_COURSES["mission_setting"]
