"""Baseline search strategies: exhaustive grid and uniform random.

These are the honest baselines the surrogate-guided search is judged
against in experiment E8 — §2.2 applies to DSE methods too.

All strategies in :mod:`repro.dse` speak the **ask/tell protocol** of
:mod:`repro.engine`: they propose batches of configurations, a
:class:`~repro.engine.evaluator.Evaluator` prices them (with caching
and optional process-pool parallelism), and the strategy ingests the
priced batch.  The classic entry points (:func:`grid_search`,
:func:`random_search`) remain as thin wrappers that build a strategy
and an evaluator and drive them with
:func:`~repro.engine.protocol.run_search`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dse.space import Config, DesignSpace, Population
from repro.engine.cache import ResultCache
from repro.engine.evaluator import EvalResult, Evaluator
from repro.engine.protocol import SearchStrategy, run_search
from repro.errors import SearchError
from repro.telemetry.tracer import get_tracer

Objective = Callable[[Config], float]


@dataclass
class SearchResult:
    """Outcome of a search run (minimization).

    Attributes:
        best_config: Best configuration found.
        best_value: Its objective value.
        evaluations: Unique candidate evaluations the search consumed.
            (Counted at the search level: a warm result cache reduces
            *oracle calls* — see ``Evaluator.stats()["oracle_calls"]`` — but not
            this number, so results stay identical across cache states.)
        history: ``(config, value)`` in evaluation order.
        trace: Best-so-far value after each evaluation (for sample-
            efficiency curves).
    """

    best_config: Config
    best_value: float
    evaluations: int
    history: List[Tuple[Config, float]] = field(default_factory=list)
    trace: List[float] = field(default_factory=list)

    def best_after(self, n_evaluations: int) -> float:
        """Best value found within the first ``n_evaluations`` calls."""
        if n_evaluations < 1:
            raise SearchError("n_evaluations must be >= 1")
        index = min(n_evaluations, len(self.trace)) - 1
        return self.trace[index]


def record(history: List[Tuple[Config, float]], trace: List[float],
           config: Config, value: float) -> None:
    """Append one evaluation to a search's ``history``/``trace`` pair.

    This is the single funnel every DSE strategy routes evaluations
    through: ``history`` gets ``(config, value)``, ``trace`` gets the
    running best, and — because there is exactly one funnel — all
    strategies share one per-iteration telemetry emit site (``dse.eval``
    instants and the ``dse.best`` counter on the ``dse`` track, with the
    evaluation index as the timeline, since DSE has no simulated clock).

    Public API: strategies outside :mod:`repro.dse` implementing the
    ask/tell protocol should call this (or subclass
    :class:`ConfigStrategy`, which calls it for them) so their runs plot
    on the same sample-efficiency axes.
    """
    history.append((config, value))
    best = value if not trace else min(trace[-1], value)
    trace.append(best)
    tracer = get_tracer()
    if tracer.enabled:
        iteration = len(trace)
        tracer.instant("dse.eval", ts=float(iteration), track="dse",
                       args={"iteration": iteration,
                             "config": dict(config),
                             "value": value, "best": best})
        tracer.counter("dse.best", ts=float(iteration), value=best,
                       track="dse")


class ConfigStrategy(SearchStrategy):
    """Shared ask/tell bookkeeping for single-objective config searches.

    Owns the ``history``/``trace``/best tracking that every strategy
    needs; subclasses implement :meth:`ask` (and usually extend
    :meth:`tell`) and inherit a :meth:`result` that assembles the
    :class:`SearchResult`.
    """

    def __init__(self, space: DesignSpace):
        self.space = space
        self.history: List[Tuple[Config, float]] = []
        self.trace: List[float] = []
        self.best_config: Optional[Config] = None
        self.best_value = math.inf

    def ingest(self, config: Config, value: float) -> None:
        """Record one priced configuration (history, trace, best)."""
        record(self.history, self.trace, config, value)
        if value < self.best_value:
            self.best_value = value
            self.best_config = config

    def tell(self, results: Sequence[EvalResult]) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            for result in results:
                self.ingest(result.candidate, result.value)
            return
        # Tracer off: inline record()'s bookkeeping (identical history,
        # trace, and best-so-far — the skipped branch is exactly the
        # telemetry emit), so funnel screens ingesting tens of
        # thousands of cheap results don't pay three calls per result.
        history, trace = self.history, self.trace
        running = trace[-1] if trace else None
        best_value, best_config = self.best_value, self.best_config
        for result in results:
            value = result.value
            history.append((result.candidate, value))
            # min(running, value), with record()'s first-entry rule
            # (the first value seeds the trace unconditionally).
            if running is None or value < running:
                running = value
            trace.append(running)
            if value < best_value:
                best_value = value
                best_config = result.candidate
        self.best_value = best_value
        self.best_config = best_config

    def result(self) -> SearchResult:
        if self.best_config is None:
            raise SearchError("search finished without any evaluation")
        return SearchResult(best_config=self.best_config,
                            best_value=self.best_value,
                            evaluations=len(self.history),
                            history=self.history, trace=self.trace)


class GridStrategy(ConfigStrategy):
    """Enumerate the space in index order (optionally budget-capped).

    Args:
        space: The design space.
        budget: Evaluation cap (full enumeration when ``None``).
        batch_size: Candidates proposed per :meth:`ask` (the whole
            remaining budget when ``None`` — grid points are
            independent, so the largest batches parallelize best).
    """

    def __init__(self, space: DesignSpace, budget: Optional[int] = None,
                 batch_size: Optional[int] = None):
        super().__init__(space)
        self.limit = space.size if budget is None \
            else min(budget, space.size)
        if self.limit < 1:
            raise SearchError("budget must allow >= 1 evaluation")
        if batch_size is not None and batch_size < 1:
            raise SearchError("batch_size must be >= 1")
        self.batch_size = batch_size if batch_size is not None \
            else self.limit
        self._next_index = 0

    def ask(self) -> Population:
        end = min(self._next_index + self.batch_size, self.limit)
        batch = self.space.configs(np.arange(self._next_index, end))
        self._next_index = end
        return batch

    def finished(self) -> bool:
        return len(self.history) >= self.limit


class RandomStrategy(ConfigStrategy):
    """Uniform random sampling without replacement (when feasible).

    The full sample is drawn up front from the seeded RNG, so the
    proposed sequence — and therefore the result — is independent of
    batching, caching, and parallelism.
    """

    def __init__(self, space: DesignSpace, budget: int, seed: int = 0,
                 batch_size: Optional[int] = None):
        super().__init__(space)
        if budget < 1:
            raise SearchError("budget must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise SearchError("batch_size must be >= 1")
        rng = np.random.default_rng(seed)
        self._configs = space.sample(rng, n=budget,
                                     replace=budget > space.size)
        self.batch_size = batch_size if batch_size is not None \
            else len(self._configs)
        self._next_index = 0

    def ask(self) -> Population:
        end = min(self._next_index + self.batch_size,
                  len(self._configs))
        batch = self._configs[self._next_index:end]
        self._next_index = end
        return batch

    def finished(self) -> bool:
        return len(self.history) >= len(self._configs)


def _make_evaluator(objective: Optional[Objective],
                    evaluator: Optional[Evaluator], jobs: int,
                    cache: Optional[ResultCache], seed: int = 0,
                    chunk_size: Optional[int] = None) -> Evaluator:
    """Resolve the wrapper-call convention: an explicit evaluator wins;
    otherwise one is built around the given objective."""
    if evaluator is not None:
        return evaluator
    if objective is None:
        raise SearchError("pass an objective or an evaluator")
    return Evaluator(objective, jobs=jobs, cache=cache, seed=seed,
                     chunk_size=chunk_size)


def grid_search(space: DesignSpace, objective: Optional[Objective] = None,
                budget: Optional[int] = None, *,
                evaluator: Optional[Evaluator] = None, jobs: int = 1,
                cache: Optional[ResultCache] = None,
                chunk_size: Optional[int] = None) -> SearchResult:
    """Enumerate the space in index order (optionally budget-capped)."""
    strategy = GridStrategy(space, budget=budget)
    return run_search(strategy,
                      _make_evaluator(objective, evaluator, jobs, cache,
                                      chunk_size=chunk_size))


def random_search(space: DesignSpace,
                  objective: Optional[Objective] = None,
                  budget: int = 1, seed: int = 0, *,
                  evaluator: Optional[Evaluator] = None, jobs: int = 1,
                  cache: Optional[ResultCache] = None,
                  chunk_size: Optional[int] = None) -> SearchResult:
    """Uniform random sampling without replacement (when feasible)."""
    strategy = RandomStrategy(space, budget=budget, seed=seed)
    return run_search(strategy,
                      _make_evaluator(objective, evaluator, jobs, cache,
                                      seed=seed, chunk_size=chunk_size))
