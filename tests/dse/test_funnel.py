"""Multi-fidelity funnel: gates, edge cases, determinism, and the
tier-equivalence contract at the search level."""

import pytest

from repro.dse import DesignSpace, Parameter
from repro.dse.funnel import (FunnelConfig, FunnelStrategy,
                              PromotionGate, build_inner, default_gates,
                              funnel_search)
from repro.dse.objectives import (codesign_space, codesign_space_xl,
                                  mission_objective, suite_objective)
from repro.dse.search import GridStrategy, RandomStrategy, grid_search, \
    random_search
from repro.engine.cache import ResultCache
from repro.engine.evaluator import Evaluator
from repro.engine.protocol import FidelityTier, fidelity_tiers, \
    run_search
from repro.errors import SearchError


def plain(config):
    return (config["x"] - 5) ** 2


def screen(config):
    return abs(config["x"] - 5)


def screen_batch(configs):
    return [screen(c) for c in configs]


def flat(config):
    return 1.0


def flat_batch(configs):
    return [1.0 for _ in configs]


class TwoTier:
    """Tiny tiered objective (module-level: picklable for jobs=2)."""

    def __call__(self, config):
        return plain(config)

    def evaluate_batch(self, configs):
        return [self(c) for c in configs]

    def fidelity_tiers(self):
        return (
            FidelityTier(name="screen", evaluate=screen,
                         evaluate_batch=screen_batch, cost_hint=1.0),
            FidelityTier(name="full", evaluate=self,
                         evaluate_batch=self.evaluate_batch,
                         cost_hint=3.0),
        )


class FlatScreenTier(TwoTier):
    """Screen scores are all equal — gate must break ties by arrival."""

    def fidelity_tiers(self):
        return (
            FidelityTier(name="screen", evaluate=flat,
                         evaluate_batch=flat_batch, cost_hint=1.0),
            FidelityTier(name="full", evaluate=self,
                         evaluate_batch=self.evaluate_batch,
                         cost_hint=3.0),
        )


@pytest.fixture
def line_space():
    return DesignSpace([Parameter("x", tuple(range(16)))])


class TestPromotionGate:
    def test_needs_exactly_one_rule(self):
        with pytest.raises(SearchError):
            PromotionGate()
        with pytest.raises(SearchError):
            PromotionGate(top_fraction=0.1, threshold=1.0)

    def test_fraction_range(self):
        with pytest.raises(SearchError):
            PromotionGate(top_fraction=0.0)
        with pytest.raises(SearchError):
            PromotionGate(top_fraction=1.5)
        PromotionGate(top_fraction=1.0)  # inclusive upper bound

    def test_budget_positive(self):
        with pytest.raises(SearchError):
            PromotionGate(top_fraction=0.5, budget=0)

    def test_default_gates(self):
        assert default_gates(0) == ()
        (one,) = default_gates(1)
        assert one.top_fraction == 0.01
        two = default_gates(2)
        assert [g.top_fraction for g in two] == [0.05, 0.2]
        three = default_gates(3)
        product = 1.0
        for gate in three:
            product *= gate.top_fraction
        assert product == pytest.approx(0.01)

    def test_default_gates_reject_negative(self):
        with pytest.raises(SearchError):
            default_gates(-1)


class TestFunnelConfig:
    def test_unknown_inner_rejected(self):
        with pytest.raises(SearchError):
            FunnelConfig(inner="annealing")

    def test_gates_coerced_to_tuple(self):
        cfg = FunnelConfig(gates=[PromotionGate(top_fraction=0.5)])
        assert isinstance(cfg.gates, tuple)

    def test_build_inner_names(self, line_space):
        for name in ("random", "grid", "evolutionary"):
            build_inner(name, line_space, budget=4)
        with pytest.raises(SearchError):
            build_inner("annealing", line_space, budget=4)


class TestFunnelStrategyValidation:
    def _inner(self, space):
        return RandomStrategy(space, budget=8)

    def test_needs_tiers(self, line_space):
        with pytest.raises(SearchError):
            FunnelStrategy((), self._inner(line_space))

    def test_duplicate_tiers_rejected(self, line_space):
        with pytest.raises(SearchError):
            FunnelStrategy(("a", "a"), self._inner(line_space))

    def test_gate_count_must_match(self, line_space):
        with pytest.raises(SearchError):
            FunnelStrategy(("a", "b"), self._inner(line_space),
                           gates=())

    def test_budget_positive(self, line_space):
        with pytest.raises(SearchError):
            FunnelStrategy(("a", "b"), self._inner(line_space),
                           budget=0)


class TestFunnelSearch:
    def test_finds_direct_search_optimum(self):
        """Full-budget funnel over the whole demo space lands on the
        same optimum as exhaustive full-fidelity enumeration."""
        space = codesign_space()
        direct = grid_search(space, suite_objective)
        result, strategy = funnel_search(
            space, suite_objective, budget=space.size,
            config=FunnelConfig(inner="grid"))
        assert result.best_config == direct.best_config
        assert result.best_value == direct.best_value
        report = {row["tier"]: row for row in strategy.tier_report()}
        assert report["roofline"]["evaluated"] == space.size
        assert report["suite"]["evaluated"] < space.size * 0.05
        assert report["roofline"]["kill_rate"] > 0.9

    def test_history_is_top_tier_only(self, line_space):
        result, strategy = funnel_search(
            line_space, TwoTier(), budget=16,
            config=FunnelConfig(
                inner="grid",
                gates=(PromotionGate(top_fraction=0.25),)))
        assert result.evaluations == len(result.history) == 4
        # Full-fidelity values, not screen values.
        for config, value in result.history:
            assert value == plain(config)

    def test_screen_budget_caps_mid_batch(self, line_space):
        """A budget that cuts into the inner's one big ask truncates
        the screen exactly there."""
        result, strategy = funnel_search(
            line_space, TwoTier(), budget=10,
            config=FunnelConfig(
                inner="grid",
                gates=(PromotionGate(top_fraction=0.2),)))
        report = {row["tier"]: row for row in strategy.tier_report()}
        assert report["screen"]["evaluated"] == 10
        assert report["screen"]["survivors"] == 2  # ceil(0.2 * 10)
        assert result.evaluations == 2

    def test_forced_promotion_when_gate_kills_everyone(self, line_space):
        result, strategy = funnel_search(
            line_space, TwoTier(), budget=8,
            config=FunnelConfig(
                inner="grid",
                gates=(PromotionGate(threshold=-1.0),)))
        report = {row["tier"]: row for row in strategy.tier_report()}
        assert report["screen"]["forced"] is True
        assert report["screen"]["survivors"] == 1
        assert result.evaluations == 1
        # The forced survivor is the screen's best candidate.
        assert result.best_config == {"x": 5}

    def test_gate_budget_caps_survivors(self, line_space):
        result, strategy = funnel_search(
            line_space, TwoTier(), budget=16,
            config=FunnelConfig(
                inner="grid",
                gates=(PromotionGate(top_fraction=1.0, budget=3),)))
        assert result.evaluations == 3

    def test_ties_promote_in_arrival_order(self, line_space):
        """Equal screen scores: the stable (value, arrival) sort keeps
        the first-proposed candidates."""
        result, _ = funnel_search(
            line_space, FlatScreenTier(), budget=16,
            config=FunnelConfig(
                inner="grid",
                gates=(PromotionGate(top_fraction=0.25),)))
        promoted = [config for config, _ in result.history]
        assert promoted == [{"x": x} for x in range(4)]

    def test_duplicate_proposals_deduplicated(self):
        tiny = DesignSpace([Parameter("x", (4, 5, 6, 7))])
        # budget > space.size forces sampling with replacement.
        result, strategy = funnel_search(
            tiny, TwoTier(), budget=12,
            config=FunnelConfig(
                gates=(PromotionGate(top_fraction=1.0),)))
        keys = [tuple(sorted(c.items())) for c, _ in result.history]
        assert len(keys) == len(set(keys)) <= tiny.size

    def test_jobs_and_chunking_do_not_change_survivors(self):
        space = codesign_space()
        runs = [
            funnel_search(space, suite_objective, budget=64,
                          config=FunnelConfig(inner="random")),
            funnel_search(space, suite_objective, budget=64,
                          config=FunnelConfig(inner="random"), jobs=2),
            funnel_search(space, suite_objective, budget=64,
                          config=FunnelConfig(inner="random"),
                          chunk_size=7),
        ]
        results, strategies = zip(*runs)
        baseline = results[0]
        for other in results[1:]:
            assert other.best_config == baseline.best_config
            assert other.best_value == baseline.best_value
            assert other.history == baseline.history
        reports = [s.tier_report() for s in strategies]
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    def test_single_tier_funnel_degenerates_to_inner(self, line_space):
        """Untiered objective: the funnel is its inner strategy."""
        result, strategy = funnel_search(line_space, plain, budget=8,
                                         seed=3)
        direct = random_search(line_space, plain, budget=8, seed=3)
        assert result.best_config == direct.best_config
        assert result.best_value == direct.best_value
        assert result.history == direct.history
        (row,) = strategy.tier_report()
        assert row["tier"] == "full"

    def test_mission_three_tier_ladder(self):
        """The mission funnel climbs pricing -> fleet -> mission and
        reports a shrinking population at every rung."""
        space = codesign_space()
        result, strategy = funnel_search(
            space, mission_objective, budget=60, seed=1)
        rows = strategy.tier_report()
        assert [r["tier"] for r in rows] \
            == ["pricing", "fleet", "mission"]
        assert rows[0]["evaluated"] == 60
        assert rows[0]["evaluated"] >= rows[1]["evaluated"] \
            >= rows[2]["evaluated"] >= 1
        assert result.best_value == mission_objective(result.best_config)

    def test_fleet_tier_values_match_top_tier(self):
        """The mid "fleet" tier is an exact vectorization of the DES
        top tier — same values, different cache namespace."""
        space = codesign_space()
        configs = [space.config_at(i) for i in (0, 37, 121, 255)]
        ev = Evaluator(mission_objective, context=None)
        fleet = ev.map_batch(configs, tier="fleet")
        full = ev.map_batch(configs, tier="mission")
        assert [r.value for r in fleet] == [r.value for r in full]
        assert all(f.key != m.key for f, m in zip(fleet, full))

    def test_funnel_primed_cache_replays_directly(self):
        """Tier-equivalence, end to end: every top-tier evaluation the
        funnel made is a legacy-keyed cache entry a direct evaluator
        replays without the oracle."""
        space = codesign_space()
        cache = ResultCache()
        result, _ = funnel_search(space, suite_objective,
                                  budget=space.size, cache=cache,
                                  config=FunnelConfig(inner="grid"))
        replay = Evaluator(suite_objective, cache=cache)
        results = replay.map_batch(
            [config for config, _ in result.history])
        assert all(r.cached for r in results)
        assert replay.stats()["oracle_calls"] == 0
        assert [r.value for r in results] \
            == [value for _, value in result.history]

    def test_xl_space_shape(self):
        space = codesign_space_xl()
        assert space.size == 64 * 32 * 32 * 16
        first, last = space.config_at(0), space.config_at(space.size - 1)
        assert first["peak_gflops"] == 50.0
        assert last["peak_gflops"] == 3200.0

    def test_run_search_routes_tiers(self, line_space):
        """run_search consults ask_tier() — driving a funnel manually
        through run_search and an Evaluator prices each stage at its
        own tier (screen evaluations never hit the full oracle)."""
        objective = TwoTier()
        ev = Evaluator(objective)
        inner = GridStrategy(line_space)
        strategy = FunnelStrategy(
            fidelity_tiers(objective), inner,
            gates=(PromotionGate(top_fraction=0.125),))
        run_search(strategy, ev)
        stats = ev.tier_stats()
        assert stats["screen"]["oracle_calls"] == 16
        assert stats["full"]["oracle_calls"] == 2
