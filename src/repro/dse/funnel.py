"""Multi-fidelity screening funnel: cheap tiers kill, the top tier pays.

The repo has three evaluators of wildly different cost for the same
candidates — closed-form SoA batch pricing (~80k cands/s), closed-form
fleet rollouts (~100k/s), and the full closed-loop DES mission (~4.5k/s
serial) — but classic strategies pay full price for every candidate.
:class:`FunnelStrategy` threads an inner search through the objective's
declared fidelity ladder (:func:`~repro.engine.protocol.fidelity_tiers`)
instead:

1. **Screen** — the inner strategy proposes candidates as usual, but
   they are priced at the *cheapest* tier; the inner strategy steers on
   that cheap signal.  A ``budget`` caps how many candidates the screen
   consumes.
2. **Gate** — between consecutive tiers a :class:`PromotionGate` keeps
   the top-k% (or everything under a score threshold), optionally
   capped by a per-tier ``budget``.  Everyone else is killed without
   ever touching the costlier tier.
3. **Promote** — survivors are re-priced at the next tier, and so on up
   the ladder.  Only top-tier evaluations enter the search history /
   best-so-far trace, so the funnel's :class:`SearchResult` has honest
   full-fidelity semantics.

Determinism: gates see the *complete* result set of a tier (the
Evaluator chunks internally, so ``chunk_size`` cannot change who
survives), candidates are deduplicated by content address, and top-k
selection uses a stable sort keyed ``(value, arrival order)`` — tier
values are bit-identical across ``jobs``/chunking by the engine
contract, so survivor sets are too.

An empty survivor set never stalls the funnel: a gate that kills
everyone is forced to promote the single best candidate (flagged in
:meth:`FunnelStrategy.tier_report`), so at least one candidate always
reaches full fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dse.search import ConfigStrategy, RandomStrategy, record
from repro.dse.space import Config, DesignSpace
from repro.engine.cache import ResultCache
from repro.engine.evaluator import EvalResult, Evaluator
from repro.engine.protocol import (FidelityTier, SearchStrategy,
                                   fidelity_tiers, run_search)
from repro.errors import SearchError

__all__ = ["FunnelConfig", "FunnelStrategy", "PromotionGate",
           "build_inner", "default_gates", "funnel_search",
           "INNER_STRATEGIES"]

#: Inner strategies the spec/CLI layer may name (grown as needed;
#: any ask/tell strategy works programmatically).
INNER_STRATEGIES = ("random", "grid", "evolutionary")


@dataclass(frozen=True)
class PromotionGate:
    """Who survives the boundary between two adjacent tiers.

    Exactly one of ``top_fraction`` / ``threshold`` selects the rule:

    - ``top_fraction``: keep the best ``ceil(fraction * n)`` candidates
      (minimization; ties broken by arrival order, so the decision is
      deterministic across jobs/chunking).
    - ``threshold``: keep candidates whose tier score is ``<=`` the
      threshold.

    ``budget`` additionally caps how many survivors are promoted into
    the next tier (best-first), bounding that tier's cost outright.
    """

    top_fraction: Optional[float] = None
    threshold: Optional[float] = None
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        chosen = [rule for rule in (self.top_fraction, self.threshold)
                  if rule is not None]
        if len(chosen) != 1:
            raise SearchError(
                "PromotionGate needs exactly one of top_fraction /"
                f" threshold (got top_fraction={self.top_fraction!r},"
                f" threshold={self.threshold!r})")
        if self.top_fraction is not None \
                and not 0.0 < self.top_fraction <= 1.0:
            raise SearchError(
                f"top_fraction must be in (0, 1] (got"
                f" {self.top_fraction!r})")
        if self.budget is not None and self.budget < 1:
            raise SearchError(
                f"gate budget must be >= 1 (got {self.budget!r})")


def default_gates(boundaries: int) -> Tuple[PromotionGate, ...]:
    """Default promotion gates for a ladder with ``boundaries`` + 1
    tiers, sized so roughly 1% of screened candidates reach the top:
    one boundary keeps 1%; two keep 5% then 20%; deeper ladders split
    1% geometrically across the boundaries.
    """
    if boundaries < 0:
        raise SearchError("boundaries must be >= 0")
    if boundaries == 0:
        return ()
    if boundaries == 1:
        return (PromotionGate(top_fraction=0.01),)
    if boundaries == 2:
        return (PromotionGate(top_fraction=0.05),
                PromotionGate(top_fraction=0.2))
    fraction = 0.01 ** (1.0 / boundaries)
    return tuple(PromotionGate(top_fraction=fraction)
                 for _ in range(boundaries))


@dataclass(frozen=True)
class FunnelConfig:
    """Spec-facing funnel knobs (the strategy itself takes objects).

    Attributes:
        inner: Name of the inner screening strategy (one of
            :data:`INNER_STRATEGIES`).
        gates: Promotion gates, one per tier boundary; ``None`` means
            :func:`default_gates` for the objective's ladder depth.
    """

    inner: str = "random"
    gates: Optional[Tuple[PromotionGate, ...]] = None

    def __post_init__(self) -> None:
        if self.inner not in INNER_STRATEGIES:
            raise SearchError(
                f"unknown inner strategy {self.inner!r};"
                f" choose from {INNER_STRATEGIES}")
        if self.gates is not None:
            object.__setattr__(self, "gates", tuple(self.gates))


def build_inner(name: str, space: DesignSpace, budget: int,
                seed: int = 0) -> ConfigStrategy:
    """Construct a named inner strategy sized for the screen budget."""
    if name == "random":
        return RandomStrategy(space, budget=budget, seed=seed)
    if name == "grid":
        from repro.dse.search import GridStrategy
        return GridStrategy(space, budget=budget)
    if name == "evolutionary":
        import numpy as np
        from repro.dse.evolutionary import EvolutionaryStrategy
        return EvolutionaryStrategy(
            space, budget=max(budget, 2),
            rng=np.random.default_rng(seed))
    raise SearchError(f"unknown inner strategy {name!r};"
                      f" choose from {INNER_STRATEGIES}")


class FunnelStrategy(SearchStrategy):
    """Tiered screening on the ask/tell protocol.

    Args:
        tiers: The fidelity ladder, cheapest first (typically
            ``fidelity_tiers(objective)``); tier names must match what
            the driving Evaluator's objective declares.
        inner: Any ask/tell strategy; it proposes screen candidates and
            is told the *tier-0* results (the cheap signal it steers
            on).
        gates: One :class:`PromotionGate` per tier boundary
            (``len(tiers) - 1``); defaults to :func:`default_gates`.
        budget: Cap on candidates consumed by the tier-0 screen
            (``None`` = until the inner strategy finishes).

    Drive it with :func:`~repro.engine.protocol.run_search`, which
    consults :meth:`ask_tier` to price each batch at the right tier.
    The :meth:`result` is built from **top-tier evaluations only**.
    """

    def __init__(self, tiers: Sequence[Union[FidelityTier, str]],
                 inner: SearchStrategy, *,
                 gates: Optional[Sequence[PromotionGate]] = None,
                 budget: Optional[int] = None):
        names: List[str] = []
        for tier in tiers:
            names.append(tier.name if isinstance(tier, FidelityTier)
                         else str(tier))
        if not names:
            raise SearchError("funnel needs at least one tier")
        if len(set(names)) != len(names):
            raise SearchError(f"duplicate tier names: {names}")
        resolved_gates = tuple(gates) if gates is not None \
            else default_gates(len(names) - 1)
        if len(resolved_gates) != len(names) - 1:
            raise SearchError(
                f"need {len(names) - 1} gate(s) for {len(names)}"
                f" tier(s), got {len(resolved_gates)}")
        if budget is not None and budget < 1:
            raise SearchError(f"budget must be >= 1 (got {budget})")
        self.tier_names = tuple(names)
        self.inner = inner
        self.gates = resolved_gates
        self.screen_budget = budget
        # Stage s means "currently pricing tier s"; stage == len(tiers)
        # means done.  Stage 0 proxies the inner strategy.
        self._stage = 0
        self._screened = 0
        # Deduped (candidate, value) pool for the stage in flight,
        # in arrival order; keys seen at the current stage.
        self._pool: List[Tuple[Config, float]] = []
        self._seen: set = set()
        # Candidates promoted into the current stage, awaiting ask().
        self._incoming: Optional[List[Config]] = None
        self._asked_tier = self.tier_names[0]
        # Telemetry: per tier name -> evaluated / survivors / forced.
        self._evaluated: Dict[str, int] = {n: 0 for n in self.tier_names}
        self._survivors: Dict[str, int] = {n: 0 for n in self.tier_names}
        self._forced: Dict[str, bool] = {n: False for n in self.tier_names}
        # Top-tier (full-fidelity) bookkeeping.
        self.history: List[Tuple[Config, float]] = []
        self.trace: List[float] = []
        self.best_config: Optional[Config] = None
        self.best_value = math.inf

    # -- protocol ------------------------------------------------------

    def ask_tier(self) -> str:
        """The fidelity tier the most recent :meth:`ask` batch should
        be priced at (consulted by ``run_search`` after each ask)."""
        return self._asked_tier

    def ask(self) -> List[Config]:
        if self.finished():
            return []
        if self._stage == 0:
            batch = self._ask_screen()
            if batch:
                return batch
            if len(self.tier_names) == 1:
                # Degenerate funnel: the screen is the top tier and the
                # inner has nothing further; result() drains the pool.
                return []
            # Screen over (inner done or budget spent): gate tier 0.
            self._advance()
            if self.finished():
                return []
        assert self._incoming is not None
        batch, self._incoming = self._incoming, []
        self._asked_tier = self.tier_names[self._stage]
        return batch

    def _ask_screen(self) -> List[Config]:
        self._asked_tier = self.tier_names[0]
        if self.screen_budget is not None \
                and self._screened >= self.screen_budget:
            return []
        if self.inner.finished():
            return []
        batch = self.inner.ask()
        if not isinstance(batch, list):
            batch = list(batch)
        # A Population slices to a Population, so the screen tier keys
        # its batch from the index view.
        if self.screen_budget is not None:
            room = self.screen_budget - self._screened
            batch = batch[:room]
        self._screened += len(batch)
        return batch

    def tell(self, results: Sequence[EvalResult]) -> None:
        stage_name = self.tier_names[self._stage]
        self._evaluated[stage_name] += len(results)
        if self._stage == 0:
            # The inner strategy steers on the cheap tier-0 signal.
            self.inner.tell(results)
        for result in results:
            if result.key in self._seen:
                continue
            self._seen.add(result.key)
            self._pool.append((result.candidate, result.value))
        if self._stage == 0:
            return
        if self._stage == len(self.tier_names) - 1:
            for candidate, value in self._pool:
                self._ingest_top(candidate, value)
            self._pool = []
            self._stage = len(self.tier_names)
        elif not self._incoming:
            # Mid-tier results are complete (one ask per mid tier):
            # gate them into the next stage.
            self._advance()

    def _ingest_top(self, config: Config, value: float) -> None:
        record(self.history, self.trace, config, value)
        self._survivors[self.tier_names[-1]] += 1
        if value < self.best_value:
            self.best_value = value
            self.best_config = config

    def _advance(self) -> None:
        """Apply the gate below the next tier and stage its survivors."""
        stage_name = self.tier_names[self._stage]
        pool, self._pool, self._seen = self._pool, [], set()
        if not pool:
            if self._stage == 0:
                raise SearchError(
                    "funnel screen produced no candidates (inner"
                    " strategy asked nothing)")
            self._stage = len(self.tier_names)
            return
        gate = self.gates[self._stage]
        survivors, forced = _apply_gate(gate, pool)
        self._survivors[stage_name] = len(survivors)
        self._forced[stage_name] = forced
        self._incoming = survivors
        self._stage += 1
        self._asked_tier = self.tier_names[self._stage]

    def finished(self) -> bool:
        if self._stage >= len(self.tier_names):
            return True
        if len(self.tier_names) == 1:
            # Degenerate single-tier funnel: the screen *is* the top
            # tier, so finishing the screen finishes the search.
            return (self.inner.finished()
                    or (self.screen_budget is not None
                        and self._screened >= self.screen_budget))
        return False

    def result(self) -> Any:
        from repro.dse.search import SearchResult
        if len(self.tier_names) == 1:
            # Single-tier: history lives in the pool (screen == top).
            for candidate, value in self._pool:
                self._ingest_top(candidate, value)
            self._pool = []
            self._stage = len(self.tier_names)
        if self.best_config is None:
            raise SearchError(
                "funnel finished without any top-tier evaluation")
        return SearchResult(best_config=self.best_config,
                            best_value=self.best_value,
                            evaluations=len(self.history),
                            history=self.history, trace=self.trace)

    # -- telemetry -----------------------------------------------------

    def tier_report(self) -> List[Dict[str, Any]]:
        """Per-tier survivor counts and kill rates, cheapest first.

        Each row: ``tier``, ``evaluated`` (unique + repeat tells),
        ``survivors`` (promoted past this tier's gate; for the top tier,
        candidates that completed full fidelity), ``killed``,
        ``kill_rate``, and ``forced`` (True when an empty survivor set
        forced promotion of the single best candidate).
        """
        rows = []
        for name in self.tier_names:
            evaluated = self._evaluated[name]
            survivors = self._survivors[name]
            killed = max(evaluated - survivors, 0)
            rows.append({
                "tier": name,
                "evaluated": evaluated,
                "survivors": survivors,
                "killed": killed,
                "kill_rate": killed / evaluated if evaluated else 0.0,
                "forced": self._forced[name],
            })
        return rows


def _apply_gate(gate: PromotionGate,
                pool: Sequence[Tuple[Config, float]]
                ) -> Tuple[List[Config], bool]:
    """Survivors of ``gate`` over ``pool``, best-first; the bool flags
    a forced promotion (everyone died, best candidate promoted anyway).
    """
    # Stable argsort == sorted(range(n), key=(value, index)): NumPy's
    # stable kind preserves arrival order among ties, and (unlike
    # Python sorted) costs O(n) Python work on a 100k-candidate pool.
    values = np.fromiter((value for _, value in pool),
                         dtype=np.float64, count=len(pool))
    order = np.argsort(values, kind="stable").tolist()
    if gate.threshold is not None:
        keep = [i for i in order if pool[i][1] <= gate.threshold]
    else:
        assert gate.top_fraction is not None
        keep = order[:max(math.ceil(gate.top_fraction * len(pool)), 0)]
    if gate.budget is not None:
        keep = keep[:gate.budget]
    forced = not keep
    if forced:
        keep = order[:1]
    return [pool[i][0] for i in keep], forced


def funnel_search(space: DesignSpace, objective: Any = None,
                  budget: int = 1, seed: int = 0, *,
                  config: Optional[FunnelConfig] = None,
                  evaluator: Optional[Evaluator] = None, jobs: int = 1,
                  cache: Optional[ResultCache] = None,
                  chunk_size: Optional[int] = None
                  ) -> Tuple[Any, FunnelStrategy]:
    """Run a funnel over ``space`` and return ``(result, strategy)``.

    The strategy is returned alongside the
    :class:`~repro.dse.search.SearchResult` so callers can read
    :meth:`FunnelStrategy.tier_report` (the CLI prints it).
    """
    from repro.dse.search import _make_evaluator
    evaluator = _make_evaluator(objective, evaluator, jobs, cache,
                                seed=seed, chunk_size=chunk_size)
    cfg = config if config is not None else FunnelConfig()
    tiers = fidelity_tiers(evaluator.objective)
    gates = cfg.gates if cfg.gates is not None \
        else default_gates(len(tiers) - 1)
    inner = build_inner(cfg.inner, space, budget, seed)
    strategy = FunnelStrategy(tiers, inner, gates=gates, budget=budget)
    result = run_search(strategy, evaluator)
    return result, strategy
