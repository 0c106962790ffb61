"""Mission-objective wiring: co-design candidates scored by flying the
fixed closed-loop scenario, batch path identical to scalar, search
routed through the engine's batch fast path, and cache keys stable
across the two paths (a scalar-primed cache replays under batch)."""

import pickle

from repro.dse.objectives import (
    MissionObjective,
    codesign_payload,
    codesign_space,
    mission_objective,
    mission_setting,
)
from repro.dse.search import random_search
from repro.engine import Evaluator
from repro.engine.cache import ResultCache
from repro.spec.registry import OBJECTIVES


def _sample_configs(step=23):
    space = codesign_space()
    return [space.config_at(i) for i in range(0, space.size, step)]


def _scalar_mission_objective(config):
    """Plain-function twin: no evaluate_batch, so an Evaluator built on
    it can only take the scalar path."""
    return mission_objective(config)


class TestMissionObjective:
    def test_batch_equals_scalar_bitwise(self):
        configs = _sample_configs()
        scalar = [mission_objective(config) for config in configs]
        batch = mission_objective.evaluate_batch(configs)
        assert batch == scalar
        assert all(type(value) is float for value in batch)

    def test_empty_batch(self):
        assert mission_objective.evaluate_batch([]) == []

    def test_registered(self):
        assert OBJECTIVES.get("mission_objective") is \
            mission_objective

    def test_pickles_to_the_singleton(self):
        clone = pickle.loads(pickle.dumps(mission_objective))
        assert clone is mission_objective

    def test_payload_scales_with_compute(self):
        space = codesign_space()
        small = codesign_payload(space.config_at(0))
        large = codesign_payload(space.config_at(space.size - 1))
        assert small[0] < large[0]  # mass
        assert small[1] < large[1]  # power

    def test_failure_penalty_dominates(self):
        # Any feasible score is < 10; any infeasible score is >= 10,
        # so success always orders above failure.
        values = mission_objective.evaluate_batch(_sample_configs(11))
        feasible = [v for v in values if v < 10.0]
        infeasible = [v for v in values if v >= 10.0]
        assert feasible, "no candidate flies the mission"
        assert max(feasible) < min(infeasible, default=float("inf"))


class TestParametricSetting:
    def test_default_setting_matches_singleton(self):
        """mission_setting()'s defaults rebuild the shared scenario, so
        a parametric objective built on them scores identically."""
        configs = _sample_configs(101)
        twin = MissionObjective(mission_setting())
        assert [twin(c) for c in configs] == \
            [mission_objective(c) for c in configs]
        assert twin.evaluate_batch(configs) == \
            mission_objective.evaluate_batch(configs)
        assert twin.pricing_screen_batch(configs) == \
            mission_objective.pricing_screen_batch(configs)

    def test_heavier_setting_changes_full_but_not_screen_shape(self):
        """More laps lengthen the flight (higher time/energy terms)
        while the tier ladder keeps working end to end."""
        config = codesign_space().config_at(0)
        heavy = MissionObjective(mission_setting(laps=4))
        base_value = mission_objective(config)
        heavy_value = heavy(config)
        assert heavy_value != base_value
        names = [tier.name for tier in heavy.fidelity_tiers()]
        assert names == ["pricing", "fleet", "mission"]
        # Batch path flies the parametric scenario too.
        assert heavy.evaluate_batch([config]) == [heavy_value]

    def test_finer_timestep_preserves_feasibility(self):
        """A finer integration step re-resolves the same flight: the
        success/failure verdict of the shared scenario must hold."""
        configs = _sample_configs(151)
        fine = MissionObjective(mission_setting(time_step_s=0.01))
        for config in configs:
            assert (fine(config) >= 10.0) == \
                (mission_objective(config) >= 10.0)

    def test_parametric_repr_and_pickle(self):
        heavy = MissionObjective(mission_setting(laps=4))
        assert "laps=4" in repr(heavy)
        clone = pickle.loads(pickle.dumps(heavy))
        assert clone is not mission_objective
        config = codesign_space().config_at(7)
        assert clone(config) == heavy(config)


class TestSearchIntegration:
    def test_search_prices_through_batch_path(self):
        space = codesign_space()
        batch_eval = Evaluator(mission_objective, seed=3)
        batch = random_search(space, budget=40, seed=3,
                              evaluator=batch_eval)
        scalar_eval = Evaluator(_scalar_mission_objective, seed=3)
        scalar = random_search(space, budget=40, seed=3,
                               evaluator=scalar_eval)
        assert batch_eval.stats()["batch_hits"] > 0
        assert scalar_eval.stats()["batch_hits"] == 0
        assert batch.best_config == scalar.best_config
        assert batch.best_value == scalar.best_value

    def test_scalar_primed_cache_replays_under_batch(self):
        """Cache keys must not depend on which path priced the
        candidate: prime a cache through the scalar twin, then the
        batch-capable objective must answer entirely from it."""
        configs = _sample_configs(31)
        cache = ResultCache()
        context = {"objective": "mission"}
        scalar_eval = Evaluator(_scalar_mission_objective, cache=cache,
                                context=context)
        scalar_values = [r.value
                         for r in scalar_eval.map_batch(configs)]
        batch_eval = Evaluator(mission_objective, cache=cache,
                               context=context)
        results = batch_eval.map_batch(configs)
        assert [r.value for r in results] == scalar_values
        assert all(r.cached for r in results)
        assert batch_eval.stats()["oracle_calls"] == 0
        assert batch_eval.stats()["batch_hits"] == 0


class TestHeldCourse:
    """Both paths fly the course the setting holds: the batch path
    neither re-resolves it through the course store nor diverges from
    the scalar path after the world is edited in place."""

    def test_batch_equals_scalar_after_in_place_world_edit(self):
        objective = MissionObjective(mission_setting(
            seed=17, extent=50.0, n_obstacles=40))
        world = objective._setting()[0].world
        world.centers[:] = world.centers[::-1] + 0.5
        configs = _sample_configs(37)
        assert objective.evaluate_batch(configs) == \
            [objective(config) for config in configs]

    def test_warm_batch_computes_no_content_key(self, monkeypatch):
        from repro.system import courses

        configs = _sample_configs(37)
        mission_objective.evaluate_batch(configs)
        keys = []
        content_key = courses._content_key

        def counted(config):
            keys.append(None)
            return content_key(config)

        monkeypatch.setattr(courses, "_content_key", counted)
        mission_objective.evaluate_batch(configs)
        assert keys == []
