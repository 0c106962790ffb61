"""The course store stays content-keyed across ``run_fleet`` calls.

Each call keys its world by content, not identity, so editing a world's
arrays in place between two calls must re-plan the course rather than
fly the stale one.
"""

import numpy as np

from repro.hw.catalog import uav_compute_tiers
from repro.kernels.planning import CircleWorld
from repro.system import courses
from repro.system.fleet import run_fleet, tier_rollouts
from repro.system.mission import MissionConfig, plan_course


def test_in_place_world_edit_replans(monkeypatch):
    plans = []

    def counting_plan(config):
        plans.append(None)
        return plan_course(config)

    monkeypatch.setattr(courses, "_STORE", {})
    monkeypatch.setattr(courses, "plan_course", counting_plan)
    world = CircleWorld.random(dim=2, n_obstacles=12, extent=30.0,
                               radius_range=(1.0, 2.0), seed=5,
                               keep_corners_free=3.0)
    config = MissionConfig(world=world, start=np.array([1.0, 1.0]),
                           goal=np.array([28.0, 28.0]))
    rollouts = tier_rollouts(config, uav_compute_tiers())
    before = run_fleet(rollouts).results.columns["distance"].copy()
    run_fleet(rollouts)
    assert len(plans) == 1
    world.centers[:] = world.centers[::-1] + 0.5
    after = run_fleet(rollouts).results.columns["distance"]
    assert len(plans) == 2
    np.testing.assert_array_equal(
        after, run_fleet(tier_rollouts(config, uav_compute_tiers()))
        .results.columns["distance"])
    assert len(plans) == 2
    assert not np.array_equal(before, after)
