"""Serial == parallel == cache-warm, for every strategy and the suite.

The engine's contract: evaluation mode is an operational choice, never a
semantic one.  Each test runs the same seeded search three ways — in
process, on a 4-worker pool, and replayed against a warm cache — and
requires identical histories/traces/results, with the warm replay
consuming zero oracle calls.
"""

import numpy as np

from repro.benchmarksuite import SuiteRunner, evaluate_pair, row_cache
from repro.dse import (
    EvolutionarySearch,
    SurrogateSearch,
    grid_search,
    multi_objective_search,
    random_search,
)
from repro.dse.space import DesignSpace, Parameter
from repro.engine import Evaluator, ResultCache
from repro.hw.catalog import embedded_cpu, embedded_gpu


def _space():
    return DesignSpace([
        Parameter("a", tuple(range(6))),
        Parameter("b", (0.5, 1.0, 2.0, 4.0)),
        Parameter("c", ("x", "y", "z")),
    ])


def synth_objective(config):
    bump = {"x": 0.0, "y": -0.5, "z": 0.25}[config["c"]]
    return (config["a"] - 3) ** 2 + (config["b"] - 1.0) ** 2 + bump


def synth_latency(config):
    return float(config["a"]) + config["b"]


def synth_energy(config):
    return (5.0 - config["a"]) ** 2 / (1.0 + config["b"])


def _assert_same(a, b):
    assert a.history == b.history
    assert a.trace == b.trace
    assert a.best_config == b.best_config
    assert a.best_value == b.best_value
    assert a.evaluations == b.evaluations


class TestStrategyEquivalence:
    def _three_ways(self, run):
        """``run(evaluator) -> SearchResult`` under the three modes."""
        serial = run(Evaluator(synth_objective))
        parallel = run(Evaluator(synth_objective, jobs=4))
        cache = ResultCache()
        run(Evaluator(synth_objective, cache=cache))
        warm = Evaluator(synth_objective, cache=cache)
        replay = run(warm)
        _assert_same(serial, parallel)
        _assert_same(serial, replay)
        assert warm.stats()["oracle_calls"] == 0

    def test_grid(self):
        self._three_ways(
            lambda ev: grid_search(_space(), evaluator=ev))

    def test_random(self):
        self._three_ways(
            lambda ev: random_search(_space(), budget=20, seed=5,
                                     evaluator=ev))

    def test_evolutionary(self):
        self._three_ways(
            lambda ev: EvolutionarySearch(
                _space(), population_size=8, seed=2,
            ).run(budget=18, evaluator=ev))

    def test_surrogate(self):
        self._three_ways(
            lambda ev: SurrogateSearch(
                _space(), n_initial=4, seed=1,
            ).run(budget=12, evaluator=ev))


class TestMultiObjectiveEquivalence:
    OBJECTIVES = {"latency": synth_latency, "energy": synth_energy}

    def _run(self, **kwargs):
        return multi_objective_search(
            _space(), dict(self.OBJECTIVES), budget_per_weight=8,
            n_weights=3, method="surrogate", seed=0, **kwargs)

    def test_parallel_matches_serial(self):
        serial = self._run()
        parallel = self._run(jobs=4)
        assert serial.front == parallel.front
        assert serial.evaluations == parallel.evaluations

    def test_warm_cache_replay(self):
        from repro.dse.multiobjective import VectorObjective

        cache = ResultCache()
        first = self._run(cache=cache)
        warm = Evaluator(VectorObjective(dict(self.OBJECTIVES)),
                         cache=cache)
        replay = self._run(evaluator=warm)
        assert warm.stats()["oracle_calls"] == 0
        assert first.front == replay.front
        assert first.evaluations == replay.evaluations


class TestSuiteEquivalence:
    def _targets(self):
        return [embedded_cpu(), embedded_gpu()]

    def test_serial_parallel_warm_identical(self, tmp_path):
        runner = SuiteRunner()
        serial = runner.run(self._targets())
        parallel = runner.run(self._targets(), jobs=4)
        assert serial == parallel

        cache = row_cache(str(tmp_path))
        primed = runner.run(self._targets(), cache=cache)
        # Fresh evaluator, fresh memory level: everything must come
        # from disk.  Context must match the one run() builds.
        from repro.hw.mapping import MappingPolicy
        warm = Evaluator(
            evaluate_pair, cache=row_cache(str(tmp_path)),
            context={"task": "benchmarksuite",
                     "policy": MappingPolicy.FASTEST})
        replay = runner.run(self._targets(), evaluator=warm)
        assert warm.stats()["oracle_calls"] == 0
        assert serial == primed == replay

    def test_engine_rows_have_zero_wall_time(self):
        rows = SuiteRunner().run(self._targets())
        assert all(row.wall_time_s == 0.0 for row in rows)

    def test_row_values_are_plain_floats(self):
        for row in SuiteRunner().run(self._targets(), jobs=2):
            assert isinstance(row.latency_s, float)
            assert not isinstance(row.latency_s, np.floating)
