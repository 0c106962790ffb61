"""Fidelity-tier plumbing: ladder validation, per-tier caching, and
the tier-equivalence contract (funnel-primed caches replay direct
full-fidelity runs with zero oracle calls)."""

import pytest

from repro.engine.cache import ResultCache
from repro.engine.evaluator import Evaluator
from repro.engine.protocol import (FidelityTier, fidelity_tiers,
                                   supports_tiers)
from repro.errors import EngineError


def plain_objective(candidate):
    return (candidate["x"] - 3) ** 2


def cheap_screen(candidate):
    # Deliberately different from full fidelity: rank-correlated proxy.
    return abs(candidate["x"] - 3)


def cheap_screen_batch(candidates):
    return [cheap_screen(c) for c in candidates]


class TieredToy:
    """Minimal conforming TieredObjective for plumbing tests."""

    def __call__(self, candidate):
        return plain_objective(candidate)

    def evaluate_batch(self, candidates):
        return [self(c) for c in candidates]

    def fidelity_tiers(self):
        return (
            FidelityTier(name="screen", evaluate=cheap_screen,
                         evaluate_batch=cheap_screen_batch,
                         cost_hint=1.0),
            FidelityTier(name="full", evaluate=self,
                         evaluate_batch=self.evaluate_batch,
                         cost_hint=4.0),
        )


class TestFidelityTier:
    def test_rejects_empty_name(self):
        with pytest.raises(EngineError):
            FidelityTier(name="", evaluate=plain_objective)

    def test_rejects_non_callable_evaluate(self):
        with pytest.raises(EngineError):
            FidelityTier(name="t", evaluate=42)

    def test_rejects_non_callable_batch(self):
        with pytest.raises(EngineError):
            FidelityTier(name="t", evaluate=plain_objective,
                         evaluate_batch=42)

    def test_rejects_non_positive_cost(self):
        with pytest.raises(EngineError):
            FidelityTier(name="t", evaluate=plain_objective,
                         cost_hint=0.0)

    def test_batch_capable(self):
        assert not FidelityTier(
            name="t", evaluate=plain_objective).batch_capable
        assert FidelityTier(
            name="t", evaluate=plain_objective,
            evaluate_batch=cheap_screen_batch).batch_capable


class TestLadderValidation:
    def test_untiered_objective_gets_implicit_full_tier(self):
        assert not supports_tiers(plain_objective)
        tiers = fidelity_tiers(plain_objective)
        assert len(tiers) == 1
        assert tiers[0].name == "full"
        assert tiers[0].evaluate is plain_objective
        assert tiers[0].evaluate_batch is None

    def test_implicit_tier_picks_up_evaluate_batch(self):
        toy = TieredToy()

        class Untiered:
            __call__ = staticmethod(plain_objective)
            evaluate_batch = staticmethod(toy.evaluate_batch)

        (tier,) = fidelity_tiers(Untiered())
        assert tier.batch_capable

    def test_declared_ladder_passes(self):
        toy = TieredToy()
        tiers = fidelity_tiers(toy)
        assert [t.name for t in tiers] == ["screen", "full"]
        assert tiers[-1].evaluate is toy

    def test_empty_ladder_rejected(self):
        class Empty:
            def __call__(self, candidate):
                return 0.0

            def fidelity_tiers(self):
                return ()

        with pytest.raises(EngineError, match="empty ladder"):
            fidelity_tiers(Empty())

    def test_duplicate_names_rejected(self):
        class Dupes(TieredToy):
            def fidelity_tiers(self):
                tier = FidelityTier(name="full", evaluate=self)
                return (tier, tier)

        with pytest.raises(EngineError, match="duplicate tier names"):
            fidelity_tiers(Dupes())

    def test_cost_ordering_enforced(self):
        class Backwards(TieredToy):
            def fidelity_tiers(self):
                return (
                    FidelityTier(name="a", evaluate=cheap_screen,
                                 cost_hint=5.0),
                    FidelityTier(name="b", evaluate=self,
                                 cost_hint=1.0),
                )

        with pytest.raises(EngineError, match="cheapest-first"):
            fidelity_tiers(Backwards())

    def test_top_tier_must_be_objective(self):
        class Impostor(TieredToy):
            def fidelity_tiers(self):
                return (FidelityTier(name="full",
                                     evaluate=cheap_screen),)

        with pytest.raises(EngineError,
                           match="tier-equivalence violation"):
            fidelity_tiers(Impostor())

    def test_top_tier_bound_method_accepted(self):
        class BoundTop:
            def __call__(self, candidate):
                return plain_objective(candidate)

            def fidelity_tiers(self):
                return (FidelityTier(name="full",
                                     evaluate=self.__call__),)

        fidelity_tiers(BoundTop())  # does not raise


class TestEvaluatorTiers:
    def _candidates(self):
        return [{"x": x} for x in range(6)]

    def test_unknown_tier_rejected(self):
        ev = Evaluator(TieredToy(), context={"task": "tiers"})
        with pytest.raises(EngineError,
                           match="does not declare fidelity tier"):
            ev.map_batch(self._candidates(), tier="nope")

    def test_lower_tier_keys_are_namespaced(self):
        ev = Evaluator(TieredToy(), context={"task": "tiers"})
        candidate = {"x": 1}
        legacy = ev.key_for(candidate)
        assert ev.key_for(candidate, tier=None) == legacy
        assert ev.key_for(candidate, tier="screen") != legacy
        assert ev.key_for(candidate, tier="screen") \
            != ev.key_for(candidate, tier="other")

    def test_top_tier_keys_equal_legacy_keys(self):
        """The tier-equivalence contract at the key level."""
        ev = Evaluator(TieredToy(), context={"task": "tiers"})
        tiered = ev.map_batch(self._candidates(), tier="full")
        direct = ev.map_batch(self._candidates())
        assert [r.key for r in tiered] == [r.key for r in direct]
        assert [r.value for r in tiered] == [r.value for r in direct]
        # The second pass replayed the first from cache.
        assert all(r.cached for r in direct)

    def test_top_tier_primes_cache_for_fresh_evaluator(self):
        cache = ResultCache()
        warm = Evaluator(TieredToy(), cache=cache,
                         context={"task": "tiers"})
        warm.map_batch(self._candidates(), tier="full")
        replay = Evaluator(TieredToy(), cache=cache,
                           context={"task": "tiers"})
        results = replay.map_batch(self._candidates())
        assert all(r.cached for r in results)
        assert replay.stats()["oracle_calls"] == 0

    def test_lower_tiers_do_not_pollute_full_fidelity(self):
        cache = ResultCache()
        ev = Evaluator(TieredToy(), cache=cache,
                       context={"task": "tiers"})
        screen = ev.map_batch(self._candidates(), tier="screen")
        full = ev.map_batch(self._candidates())
        assert not any(r.cached for r in full)
        # Screen values really are the cheap proxy, not full fidelity.
        assert [r.value for r in screen] \
            == [cheap_screen(c) for c in self._candidates()]
        assert [r.value for r in full] \
            == [plain_objective(c) for c in self._candidates()]

    def test_tier_values_identical_scalar_vs_batch(self):
        class ScalarOnly(TieredToy):
            def fidelity_tiers(self):
                return tuple(
                    FidelityTier(name=t.name, evaluate=t.evaluate,
                                 cost_hint=t.cost_hint)
                    for t in super().fidelity_tiers())

        batchless = Evaluator(ScalarOnly(), context={"task": "tiers"})
        batched = Evaluator(TieredToy(), context={"task": "tiers"})
        for tier in ("screen", "full"):
            a = batchless.map_batch(self._candidates(), tier=tier)
            b = batched.map_batch(self._candidates(), tier=tier)
            assert [r.value for r in a] == [r.value for r in b]

    def test_tier_stats_counters(self):
        ev = Evaluator(TieredToy(), context={"task": "tiers"})
        ev.map_batch(self._candidates(), tier="screen")
        ev.map_batch(self._candidates(), tier="screen")
        ev.map_batch(self._candidates()[:2], tier="full")
        stats = ev.tier_stats()
        assert stats["screen"]["candidates"] == 12
        assert stats["screen"]["oracle_calls"] == 6
        assert stats["screen"]["cache_hits"] == 6
        assert stats["full"]["oracle_calls"] == 2
        # A tier that never fell back still reports all five counters.
        assert stats["full"] == {"candidates": 2, "oracle_calls": 2,
                                 "cache_hits": 0, "batch_hits": 2,
                                 "batch_fallbacks": 0}
        # Legacy stats() keeps its shape (global counters only).
        assert ev.stats()["oracle_calls"] == 8
