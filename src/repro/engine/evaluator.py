"""The Evaluator: candidate pricing as a cacheable, parallel service.

Every search loop and suite run in the repo used to own a private
``evaluate`` closure; this class centralizes that responsibility:

- **Content addressing** — each candidate is fingerprinted together
  with the evaluator's ``context`` (a description of *what question* is
  being asked: objective identity, mapping policy, ...), so results are
  shareable across runs and processes without identity games.  A batch
  decoded from design indices (a :class:`~repro.dse.space.Population`)
  is keyed in one pass from pre-encoded fragments, to the same bytes.
- **Caching** — a :class:`~repro.engine.cache.ResultCache` absorbs
  repeated candidates; a warm cache answers a whole re-run with zero
  oracle calls.
- **Batch parallelism** — :meth:`map_batch` prices a batch serially or
  on a ``concurrent.futures`` process pool.  Results come back in input
  order and each candidate gets a seed derived from its fingerprint,
  never from batch position, so a parallel run is bit-identical to the
  serial one.
- **Vectorized batch pricing** — objectives exposing ``evaluate_batch``
  (the :class:`~repro.engine.protocol.BatchObjective` shape) get the
  whole pending set in one call, so a structure-of-arrays kernel can
  price a population at once instead of candidate-by-candidate.  The
  fast path changes only *how* values are computed: fingerprints,
  cache keys, per-candidate seeds, and result order are identical to
  the scalar path, and values must be too (batch objectives in this
  repo are bit-identical by construction — see :mod:`repro.hw.batch`).
  An objective can decline a batch by raising
  :class:`~repro.errors.BatchFallback`, which falls back to the scalar
  path transparently.
- **Sharded batch pricing** — with ``jobs > 1``, a large enough
  ``evaluate_batch`` window is split into contiguous shards priced on
  the process pool and concatenated back in order.  The elementwise
  contract that makes chunking value-neutral makes sharding
  value-neutral for the same reason; small windows stay in-process
  (pool spin-up would dominate), and a window whose objective cannot
  pickle falls back to the in-process batch call transparently.
- **Chunked streaming** — with ``chunk_size`` set, :meth:`map_batch`
  pushes the pending set through the oracle in fixed-size windows, so
  an arbitrarily large population evaluates under a bounded working
  set (an arena-backed batch objective reuses the same buffers every
  chunk).  Chunking changes neither values nor order: candidates are
  independent, seeds are fingerprint-derived, and batch objectives are
  elementwise, so any chunking of the pending set computes the same
  results.

Telemetry: the evaluator counts only in its
:class:`~repro.telemetry.metrics.MetricsRegistry` (the one passed as
``metrics``, or a private one): oracle calls, cache hits, batch-path
hits/fallbacks, shards, chunk counts/occupancy and per-candidate wall
times land under ``engine.*``, and a tiered batch's counts under
``engine.tier.<name>.*`` as well.  :meth:`Evaluator.stats` and
:meth:`Evaluator.tier_stats` are read-only views of those counters;
per-batch wall spans go to the tracer.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from hashlib import sha256
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.cache import ResultCache
from repro.engine.fingerprint import fingerprint, try_fast_json
from repro.errors import BatchFallback, EngineError
from repro.telemetry.metrics import (
    MetricsRegistry,
    StreamingHistogram,
)
from repro.telemetry.tracer import Tracer, get_tracer

__all__ = ["EvalResult", "Evaluator"]

Objective = Callable[..., Any]

#: Mask keeping derived seeds inside numpy's legal seed range.
_SEED_MASK = (1 << 63) - 1

#: Smallest evaluate_batch window worth sharding across a process
#: pool; below this, pool spin-up and pickling dominate the kernel.
_SHARD_FLOOR = 64

#: The ``engine.<name>`` counters :meth:`Evaluator.stats` reports.
_STATS = ("oracle_calls", "batches", "batch_hits", "batch_fallbacks",
          "batch_shards", "chunks")

#: The ``engine.tier.<tier>.<name>`` counters
#: :meth:`Evaluator.tier_stats` reports for every tier.
_TIER_STATS = ("candidates", "oracle_calls", "cache_hits", "batch_hits",
               "batch_fallbacks")


@dataclass(frozen=True)
class EvalResult:
    """One priced candidate.

    Attributes:
        candidate: The candidate exactly as submitted.
        value: The objective's result for it.
        key: The content address the result is cached under.
        cached: Whether the value came from the cache (no oracle call).
        wall_time_s: Wall-clock cost of the oracle call (0 for hits;
            an even share of the batch call for candidates priced
            through an ``evaluate_batch`` fast path).
        seed: The deterministic per-candidate seed used (or available)
            for the evaluation.
    """

    candidate: Any
    value: Any
    key: str
    cached: bool
    wall_time_s: float
    seed: int


_new_result = object.__new__


def _timed_call(objective: Objective, candidate: Any, seed: int,
                seeded: bool) -> Tuple[Any, float]:
    """Invoke the objective and self-time it (runs in pool workers too,
    hence module-level for picklability)."""
    started = time.perf_counter()
    value = objective(candidate, seed) if seeded else objective(candidate)
    return value, time.perf_counter() - started


def _batch_call(batch_fn: Callable[..., Any], candidates: List[Any],
                seeds: List[int], seeded: bool) -> List[Any]:
    """One evaluate_batch shard (runs in pool workers, hence
    module-level for picklability)."""
    return list(batch_fn(candidates, seeds) if seeded
                else batch_fn(candidates))


class Evaluator:
    """Prices candidates through an objective, with caching and batching.

    Args:
        objective: ``candidate -> value``; with ``seeded=True``,
            ``(candidate, seed) -> value``.  Must be picklable (a
            module-level callable or an instance of a module-level
            class) when ``jobs > 1``.
        jobs: Process-pool width for :meth:`map_batch` (1 = in-process
            serial evaluation).
        cache: Result store (a private in-memory one by default).  Pass
            a :class:`ResultCache` with a directory for cross-run reuse.
        seed: Base seed mixed into every per-candidate seed.
        context: Anything fingerprintable describing the evaluation
            question (objective name/version, policy knobs).  Two
            evaluators sharing a cache directory MUST use distinct
            contexts unless their objectives agree.
        seeded: Whether the objective takes a per-candidate seed.
        chunk_size: Evaluate at most this many pending candidates per
            oracle pass (None = the whole pending set at once).  Bounds
            the peak working set without changing values, order, seeds,
            or cache keys.
        metrics: Registry that stores the ``engine.*`` counters and
            histograms (a private one by default).  :meth:`stats` reads
            the whole registry, so evaluators sharing one report their
            combined counts.
        tracer: Tracer receiving per-batch wall spans (defaults to the
            process-global tracer).
    """

    def __init__(self, objective: Objective, *, jobs: int = 1,
                 cache: Optional[ResultCache] = None, seed: int = 0,
                 context: Any = None, seeded: bool = False,
                 chunk_size: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        if jobs < 1:
            raise EngineError(f"jobs must be >= 1 (got {jobs})")
        if chunk_size is not None and chunk_size < 1:
            raise EngineError(
                f"chunk_size must be >= 1 (got {chunk_size})")
        self.objective = objective
        self.jobs = int(jobs)
        self.cache = cache if cache is not None else ResultCache()
        self.seed = int(seed)
        self.seeded = bool(seeded)
        self.chunk_size = int(chunk_size) if chunk_size else None
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self._tracer = tracer
        self._context_fp = fingerprint(context) if context is not None \
            else ""
        self._key_suffixes: Dict[Optional[str], str] = {}
        self._tiers_cache: Optional[Tuple[Any, ...]] = None

    # -- content addressing -------------------------------------------

    def key_for(self, candidate: Any, tier: Optional[str] = None, *,
                body: Optional[str] = None) -> str:
        """The content address of ``candidate`` under this context.

        ``tier`` names the fidelity namespace: ``None`` (the default,
        and the top tier) keys exactly as always, so full-fidelity
        results are shared between direct and funnel-driven runs;
        lower tiers mix their name into the fingerprint so a cheap
        screen can never masquerade as a full-price result.

        ``body`` is the candidate's canonical JSON when the caller
        already has it (:meth:`keys_for` gets a whole population's in
        one pass); it must equal
        :func:`~repro.engine.fingerprint.try_fast_json` of
        ``candidate``.
        """
        # Fast path: the wrapper's canonical JSON is assembled from a
        # precomputed context/tier suffix and the fast-encoded candidate
        # ("candidate" < "context" < "tier" under the sorted-keys
        # encoding, and JSON composes), so only the candidate is encoded
        # per call.  Candidates needing the full canonical reduction
        # fall back to fingerprinting the whole wrapper — which takes
        # the identical slow path, so keys agree either way.
        if body is None:
            body = try_fast_json(candidate)
        if body is None:
            if tier is None:
                return fingerprint({"context": self._context_fp,
                                    "candidate": candidate})
            return fingerprint({"context": self._context_fp,
                                "tier": tier, "candidate": candidate})
        suffix = self._key_suffixes.get(tier)
        if suffix is None:
            suffix = ',"context":' + try_fast_json(self._context_fp)
            if tier is not None:
                suffix += ',"tier":' + try_fast_json(tier)
            suffix += "}"
            self._key_suffixes[tier] = suffix
        return sha256(('{"candidate":' + body + suffix)
                      .encode("utf-8")).hexdigest()

    def keys_for(self, candidates: Sequence[Any],
                 tier: Optional[str] = None) -> List[str]:
        """``[key_for(c, tier) for c in candidates]``.

        A :class:`~repro.dse.space.Population` encodes its whole batch
        in one pass (``canonical_json()`` joins its space's pre-encoded
        ``"name":value`` fragments), and each key is then
        :meth:`key_for` of that body, so only the wrapper and SHA-256
        are left per candidate.  A population whose space is not plain
        JSON (NaN, numpy scalars, enums) answers ``None`` and is encoded
        per candidate, as is every other sequence.
        """
        encode = getattr(candidates, "canonical_json", None)
        bodies = encode() if encode is not None else None
        key_for = self.key_for
        if bodies is None:
            return [key_for(candidate, tier) for candidate in candidates]
        return [key_for(candidate, tier, body=body)
                for candidate, body in zip(candidates, bodies)]

    def seed_for(self, key: str) -> int:
        """Per-candidate seed: a pure function of (base seed, key).

        The key is the candidate's content fingerprint, so the seed is
        independent of batch composition, evaluation order, chunking,
        and process-pool sharding — the same candidate gets the same
        seed whether it is priced serially, in a chunk, or in a pool
        shard.  That invariance is what makes parallel and chunked runs reproduce
        serial ones exactly (enforced by
        ``tests/engine/test_evaluator.py``).
        """
        return (self.seed ^ int(key[:16], 16)) & _SEED_MASK

    # -- evaluation ---------------------------------------------------

    def _fidelity_tiers(self) -> Tuple[Any, ...]:
        if self._tiers_cache is None:
            from repro.engine.protocol import fidelity_tiers
            self._tiers_cache = fidelity_tiers(self.objective)
        return self._tiers_cache

    def _resolve_tier(self, tier: Any) -> Any:
        """Map a tier name (or FidelityTier) to the objective's
        declared tier; None passes through (legacy full fidelity)."""
        if tier is None:
            return None
        name = getattr(tier, "name", tier)
        for declared in self._fidelity_tiers():
            if declared.name == name:
                return declared
        raise EngineError(
            f"objective does not declare fidelity tier {name!r};"
            f" declared: {[t.name for t in self._fidelity_tiers()]}")

    def evaluate(self, candidate: Any) -> Any:
        """Price a single candidate (cache-transparent)."""
        return self.map_batch([candidate])[0].value

    def map_batch(self, candidates: Sequence[Any], *,
                  tier: Any = None) -> List[EvalResult]:
        """Price a batch; results are returned in input order.

        Duplicate candidates within the batch are priced once; repeat
        occurrences (and anything already cached) are marked
        ``cached=True``.  Keys come from :meth:`keys_for` (one pass for
        a :class:`~repro.dse.space.Population`) and the distinct keys
        are probed with one :meth:`ResultCache.get_many` call.

        ``tier`` selects a fidelity rung by name (or
        :class:`~repro.engine.protocol.FidelityTier`) from the
        objective's declared ladder.  ``None`` — and, by the
        tier-equivalence contract, the *top* tier — prices at full
        fidelity under the unchanged legacy cache keys; lower tiers
        evaluate through their own ``evaluate``/``evaluate_batch`` and
        cache under a per-tier namespace.  Chunking, dedup, seeds, and
        parallelism behave identically at every tier.
        """
        resolved = self._resolve_tier(tier)
        tracer = self._tracer if self._tracer is not None else get_tracer()
        with tracer.wall_span("engine.map_batch", track="engine") as span:
            results = self._map_batch(
                candidates if isinstance(candidates, list)
                else list(candidates), resolved)
        if tracer.enabled and span.args is None:
            fresh = sum(1 for r in results if not r.cached)
            span.args = {"batch": len(results), "oracle_calls": fresh,
                         "jobs": self.jobs}
            if resolved is not None:
                span.args["tier"] = resolved.name
        return results

    def _map_batch(self, candidates: List[Any],
                   tier: Any = None) -> List[EvalResult]:
        if tier is None:
            namespace = None
            scalar_fn = self.objective
            batch_fn = getattr(self.objective, "evaluate_batch", None)
            tier_name = None
        else:
            is_top = tier is self._fidelity_tiers()[-1]
            namespace = None if is_top else tier.name
            scalar_fn = tier.evaluate
            batch_fn = tier.evaluate_batch
            tier_name = tier.name
        keys = self.keys_for(candidates, namespace)
        # Probe each distinct key once, in first-occurrence order.
        values, missed = self.cache.get_many(dict.fromkeys(keys))
        pending: Dict[str, Any] = {}
        if missed:
            for key, candidate in zip(keys, candidates):
                if key not in pending and key not in values:
                    pending[key] = candidate
        # Wall time of each freshly priced key, popped by its first
        # occurrence (later ones are repeats, marked cached).
        wall: Dict[str, float] = {}
        wall_histograms = [self.metrics.histogram("engine.eval_wall_s")]
        if tier_name is not None:
            wall_histograms.append(self.metrics.histogram(
                f"engine.tier.{tier_name}.eval_wall_s"))
        if pending:
            order = list(pending)
            step = self.chunk_size or len(order)
            for lo in range(0, len(order), step):
                window = order[lo:lo + step]
                outcomes = self._run_pending(
                    [pending[k] for k in window],
                    [self.seed_for(k) for k in window],
                    scalar_fn, batch_fn, tier_name, wall_histograms,
                )
                for key, (value, wall_s) in zip(window, outcomes):
                    self.cache.put(key, value)
                    values[key] = value
                    wall[key] = wall_s
                if self.chunk_size is not None:
                    self._count("chunks", 1)
                    self.metrics.histogram("engine.chunk_occupancy") \
                        .record(len(window) / step)
        self._count("batches", 1)
        self._count("candidates", len(candidates), tier_name)
        self._count("oracle_calls", len(pending), tier_name)
        self._count("cache_hits", len(candidates) - len(pending),
                    tier_name)

        seed_for = self.seed_for
        results: List[EvalResult] = []
        append = results.append
        for key, candidate in zip(keys, candidates):
            wall_s = wall.pop(key, None) if wall else None
            result = _new_result(EvalResult)
            # Field for field what EvalResult(...) sets, without its
            # six frozen-dataclass __setattr__ calls.
            vars(result).update({
                "candidate": candidate, "value": values[key],
                "key": key, "cached": wall_s is None,
                "wall_time_s": 0.0 if wall_s is None else wall_s,
                "seed": seed_for(key)})
            append(result)
        return results

    def _run_pending(self, candidates: List[Any], seeds: List[int],
                     scalar_fn: Objective,
                     batch_fn: Optional[Callable[..., Any]],
                     tier_name: Optional[str],
                     wall_histograms: List[StreamingHistogram]
                     ) -> List[Tuple[Any, float]]:
        """Price one window, recording its wall times into
        ``wall_histograms``.

        A batch call gives every candidate the same wall-time share,
        so that share is recorded once with a count.
        """
        if batch_fn is not None:
            started = time.perf_counter()
            try:
                values = self._call_batch(batch_fn, candidates, seeds)
            except BatchFallback:
                self._count("batch_fallbacks", len(candidates),
                            tier_name)
            else:
                if len(values) != len(candidates):
                    raise EngineError(
                        f"evaluate_batch returned {len(values)} values"
                        f" for {len(candidates)} candidates")
                share = (time.perf_counter() - started) / len(values)
                self._count("batch_hits", len(values), tier_name)
                for histogram in wall_histograms:
                    histogram.record(share, len(values))
                return [(value, share) for value in values]
        if self.jobs == 1 or len(candidates) == 1:
            outcomes = [_timed_call(scalar_fn, candidate, seed,
                                    self.seeded)
                        for candidate, seed in zip(candidates, seeds)]
        else:
            try:
                with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                    outcomes = list(pool.map(
                        _timed_call,
                        [scalar_fn] * len(candidates),
                        candidates,
                        seeds,
                        [self.seeded] * len(candidates),
                    ))
            except (AttributeError, TypeError) as error:
                # Most commonly: an unpicklable closure objective.
                raise EngineError(
                    f"parallel evaluation (jobs={self.jobs}) requires a"
                    f" picklable objective and candidates: {error}"
                ) from error
        for _, wall_s in outcomes:
            for histogram in wall_histograms:
                histogram.record(wall_s)
        return outcomes

    def _call_batch(self, batch_fn: Callable[..., Any],
                    candidates: List[Any],
                    seeds: List[int]) -> List[Any]:
        """One oracle window through ``evaluate_batch``.

        With ``jobs > 1`` and a window large enough to amortize pool
        spin-up, the window is split into ``jobs`` contiguous shards
        priced concurrently and concatenated back in submission order —
        value-identical to the single call because batch objectives are
        elementwise and seeds are fingerprint-derived (the same
        contract that makes chunking neutral).  A shard raising
        :class:`BatchFallback` falls the whole window back to the
        scalar path; an objective that cannot pickle falls back to the
        in-process batch call.
        """
        total = len(candidates)
        if self.jobs > 1 and total >= max(2 * self.jobs, _SHARD_FLOOR):
            step = -(-total // self.jobs)  # ceil division
            bounds = [(lo, min(lo + step, total))
                      for lo in range(0, total, step)]
            try:
                with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                    parts = list(pool.map(
                        _batch_call,
                        [batch_fn] * len(bounds),
                        [candidates[lo:hi] for lo, hi in bounds],
                        [seeds[lo:hi] for lo, hi in bounds],
                        [self.seeded] * len(bounds),
                    ))
            except BatchFallback:
                raise
            except (pickle.PicklingError, AttributeError,
                    TypeError):
                parts = None  # unpicklable objective: price in-process
            if parts is not None:
                for (lo, hi), part in zip(bounds, parts):
                    if len(part) != hi - lo:
                        raise EngineError(
                            f"evaluate_batch shard returned"
                            f" {len(part)} values for {hi - lo}"
                            f" candidates")
                self._count("batch_shards", len(bounds))
                return [value for part in parts for value in part]
        return list(batch_fn(candidates, seeds) if self.seeded
                    else batch_fn(candidates))

    def _count(self, name: str, amount: int,
               tier_name: Optional[str] = None) -> None:
        """Add ``amount`` to ``engine.<name>`` and, for a tiered batch,
        to ``engine.tier.<tier_name>.<name>``.  A zero amount
        registers nothing, so views never see names that were not
        counted."""
        if amount:
            self.metrics.counter(f"engine.{name}").inc(amount)
            if tier_name is not None:
                self.metrics.counter(
                    f"engine.tier.{tier_name}.{name}").inc(amount)

    # -- introspection ------------------------------------------------

    def tier_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tier counters, keyed by tier name: a view of the
        ``engine.tier.<name>.*`` counters in :attr:`metrics`.

        Only batches priced through an explicit ``tier=`` are counted
        here (legacy ``map_batch`` calls land in :meth:`stats` alone).
        Every tier reports all five counters, zeros included.
        """
        return {tier: {name: int(counts.get(name, 0))
                       for name in _TIER_STATS}
                for tier, counts in
                self.metrics.grouped("engine.tier.").items()}

    def stats(self) -> Dict[str, int]:
        """Oracle/batch counters merged with the cache's own stats: a
        view of the ``engine.*`` counters in :attr:`metrics`."""
        return {**{name: int(self.metrics.value(f"engine.{name}"))
                   for name in _STATS},
                **self.cache.stats()}
