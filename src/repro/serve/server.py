"""The evaluation daemon: cross-client batch coalescing over asyncio.

The paper's continuous-DSE argument (§3.1) needs pricing to be a
*service*, not a one-shot job: the SoA kernels amortize best at batch
sizes no single interactive client reaches (12x+ at 1k candidates per
``BENCH_LEDGER``), so the server's job is to manufacture those batches
out of many small requests.

One :class:`EvalServer` owns, per objective, a :class:`Lane` — an
:class:`~repro.engine.evaluator.Evaluator` built with the CLI's exact
``dse-codesign`` context plus a *pending set* keyed by cache key.  A
``submit`` answers cache hits immediately and parks each miss as a
waiter on the pending entry for its key (entries dedup across clients:
two tenants asking for the same candidate share one oracle slot).  The
pending set flushes as one ``map_batch`` call when it reaches
``max_batch`` occupancy or when the oldest entry has waited
``max_wait_ms`` — ten clients asking for 100 candidates each get
priced as one 1k-candidate kernel call instead of ten sub-critical
ones.

Equivalence contract: the server changes *when* and *with whom*
candidates are priced, never *what* is priced.  Keys come from the
lane evaluator's ``keys_for`` (``key_for`` byte for byte, under the
CLI-identical context), seeds are fingerprint-derived, and batch
objectives are elementwise, so served
values — and the cache entries they leave behind — are byte-identical
to a serial ``repro dse`` run; a server-primed cache replays ``repro
run`` with zero oracle calls.

Backpressure: admission control rejects (never queues unboundedly) —
``overloaded`` when a tenant exceeds its in-flight candidate cap or
the pending set would exceed ``max_queue``, ``draining`` once shutdown
has begun.  All oracle work runs on a single worker thread: flushes
from every lane serialize there, which both bounds CPU pressure and
keeps the per-process scratch arena of the batch objectives
single-threaded.

Dashboard (one shared :class:`~repro.telemetry.MetricsRegistry`):
``serve.queue_depth`` gauge, ``serve.batch_occupancy`` histogram,
``serve.flushes`` / ``serve.coalesced_batches`` counters,
``serve.request_latency_s`` histogram (p50/p99 via ``summary()``),
``engine.cache.*`` totals from the shared cache, and
``engine.cache.tenant.<label>.hits`` / ``.misses`` per tenant.  Each
lane's evaluator counts in a registry of its own, so the ``lanes``
section of :meth:`EvalServer.stats` reports per-lane engine counts.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set

from repro.engine import Evaluator, ResultCache
from repro.errors import ReproError, ServeError, SpecError
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    Submission,
    decode_line,
    decode_submission,
    encode_line,
    error_response,
    evaluator_context,
)
from repro.telemetry import MetricsRegistry

__all__ = ["ServeConfig", "EvalServer"]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServeConfig:
    """Daemon tuning knobs.

    Attributes:
        host: Bind address.
        port: Bind port (0 = ephemeral; read the bound port back from
            :attr:`EvalServer.port`).
        max_batch: Flush the pending set at this occupancy.
        max_wait_ms: Flush a non-empty pending set after the oldest
            entry has waited this long (the latency bound a candidate
            pays for the chance to coalesce).
        max_queue: Admission bound on pending candidates per lane;
            submissions that would exceed it get ``overloaded``.
        max_inflight: Per-tenant bound on candidates submitted but not
            yet answered.
        cache_dir: Optional on-disk cache directory (what makes the
            server a cache *primer* for later ``repro run`` replays).
        cache_max_entries: In-memory cache bound (LRU eviction) for
            long-lived daemons.
        jobs: Evaluator process-pool width for flushes.
        chunk_size: Evaluator chunk size (bounds flush working set).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 1024
    max_wait_ms: float = 50.0
    max_queue: int = 8192
    max_inflight: int = 4096
    cache_dir: Optional[str] = None
    cache_max_entries: Optional[int] = None
    jobs: int = 1
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServeError(
                f"max_batch must be >= 1 (got {self.max_batch})")
        if self.max_wait_ms < 0:
            raise ServeError(
                f"max_wait_ms must be >= 0 (got {self.max_wait_ms})")
        if self.max_queue < 1:
            raise ServeError(
                f"max_queue must be >= 1 (got {self.max_queue})")
        if self.max_inflight < 1:
            raise ServeError(
                f"max_inflight must be >= 1 (got {self.max_inflight})")


@dataclass
class _Pending:
    """One parked cache miss: the candidate plus everyone waiting on
    it.  Waiter futures are per-request, so a disconnected tenant's
    future going unread never blocks the batch completing for the
    rest."""

    candidate: Mapping[str, Any]
    waiters: List["asyncio.Future[Any]"] = field(default_factory=list)
    sources: Set[int] = field(default_factory=set)


class Lane:
    """Per-objective pricing lane: evaluator + pending set + deadline."""

    def __init__(self, objective_name: str, evaluator: Evaluator):
        self.objective_name = objective_name
        self.evaluator = evaluator
        self.pending: Dict[str, _Pending] = {}
        self.timer: Optional[asyncio.TimerHandle] = None


class EvalServer:
    """The daemon.  Construct, then ``await run()`` (or drive
    :meth:`start` / :meth:`drain` yourself from tests)."""

    def __init__(self, config: ServeConfig = ServeConfig(), *,
                 metrics: Optional[MetricsRegistry] = None):
        self.config = config
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.cache = ResultCache(
            config.cache_dir,
            max_entries=config.cache_max_entries,
            metrics=self.metrics)
        self._lanes: Dict[str, Lane] = {}
        self._inflight: Dict[str, int] = {}
        self._submissions = itertools.count()
        self._oracle = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-oracle")
        self._flushes: Set["asyncio.Task[None]"] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self.draining = False
        self.port: Optional[int] = None

    # -- lanes --------------------------------------------------------

    def lane(self, objective_name: str) -> Lane:
        """The lane for an objective (created on first use).  Every
        lane shares the server cache; contexts embed the objective
        name, so keys cannot collide across lanes.  The lane evaluator
        keeps its own metrics registry, so its ``stats()`` counts that
        lane alone."""
        existing = self._lanes.get(objective_name)
        if existing is not None:
            return existing
        from repro.spec.registry import OBJECTIVES

        evaluator = Evaluator(
            OBJECTIVES.get(objective_name),
            jobs=self.config.jobs,
            cache=self.cache,
            chunk_size=self.config.chunk_size,
            context=evaluator_context(objective_name),
        )
        created = Lane(objective_name, evaluator)
        self._lanes[objective_name] = created
        return created

    def _queue_depth(self) -> int:
        return sum(len(lane.pending) for lane in self._lanes.values())

    def _set_queue_gauge(self) -> None:
        self.metrics.gauge("serve.queue_depth").set(
            self._queue_depth())

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host,
            self.config.port, limit=MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(self) -> None:
        """Serve until :meth:`request_stop` (or a ``shutdown`` op),
        then drain and close."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        try:
            await self._stopped.wait()
        finally:
            await self.aclose()

    def request_stop(self) -> None:
        """Ask :meth:`run` to drain and exit (signal-handler safe)."""
        if self._stopped is not None:
            self._stopped.set()

    async def drain(self) -> None:
        """Stop admitting, flush every lane, wait for in-flight work."""
        self.draining = True
        for lane in self._lanes.values():
            if lane.timer is not None:
                lane.timer.cancel()
                lane.timer = None
            while lane.pending:
                await self._flush(lane)
        while self._flushes:
            await asyncio.gather(*list(self._flushes),
                                 return_exceptions=True)

    async def aclose(self) -> None:
        """Graceful shutdown: drain, close the listener, stop the
        oracle thread."""
        await self.drain()
        # One scheduling breath so handlers whose waiters the drain
        # just resolved can deliver their responses before the loop
        # shuts down under them.
        await asyncio.sleep(0.05)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._oracle.shutdown(wait=True)

    # -- connection handling ------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """One connection: requests may be pipelined (a client can
        write many lines before reading), each is dispatched as its
        own task, and responses are delivered in request order.
        Pipelining is what lets a single client park many sub-critical
        submissions on the coalescer at once instead of paying one
        flush round-trip per request."""
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue[Optional[asyncio.Task]]" = asyncio.Queue()
        closing = asyncio.Event()

        async def deliver() -> None:
            while True:
                task = await queue.get()
                if task is None:
                    break
                response = await task
                delivered = await self._reply(writer, response)
                if not delivered or response.get("op") == "shutdown":
                    closing.set()
                    break

        delivery = loop.create_task(deliver())
        try:
            while not closing.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    future: "asyncio.Future[Dict[str, Any]]" = \
                        loop.create_future()
                    future.set_result(error_response(
                        "?", "bad_request",
                        f"wire line exceeds {MAX_LINE_BYTES} bytes"))
                    queue.put_nowait(future)  # type: ignore[arg-type]
                    break
                if not line:
                    break
                queue.put_nowait(loop.create_task(
                    self._dispatch(line)))
        except ConnectionError:
            pass
        finally:
            queue.put_nowait(None)
            try:
                await delivery
            except ConnectionError:
                pass
            while not queue.empty():  # undelivered after shutdown
                leftover = queue.get_nowait()
                if leftover is not None:
                    leftover.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _reply(self, writer: asyncio.StreamWriter,
                     response: Mapping[str, Any]) -> bool:
        """Write one response line; a disconnected peer's response is
        counted and dropped (its batch results are already cached for
        everyone else)."""
        try:
            writer.write(encode_line(response))
            await writer.drain()
            return True
        except (ConnectionError, OSError):
            self.metrics.counter("serve.dropped_responses").inc()
            return False

    async def _dispatch(self, line: bytes) -> Dict[str, Any]:
        try:
            payload = decode_line(line)
        except SpecError as error:
            return error_response("?", "bad_request", str(error))
        op = payload["op"]
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            return {"ok": True, "op": "stats", **self.stats()}
        if op == "shutdown":
            self.request_stop()
            return {"ok": True, "op": "shutdown"}
        try:
            submission = decode_submission(payload)
        except SpecError as error:
            return error_response("submit", "bad_request", str(error))
        return await self._submit(submission)

    # -- the coalescer ------------------------------------------------

    async def _submit(self, submission: Submission) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        arrival = loop.time()
        if self.draining:
            return error_response("submit", "draining",
                                  "server is shutting down")
        tenant = submission.tenant
        count = len(submission.candidates)
        inflight = self._inflight.get(tenant, 0)
        if inflight + count > self.config.max_inflight:
            return error_response(
                "submit", "overloaded",
                f"tenant {tenant!r} would have {inflight + count}"
                f" candidates in flight"
                f" (cap {self.config.max_inflight})",
                retry_after_ms=self.config.max_wait_ms)
        lane = self.lane(submission.objective)
        # Classify before admitting: hits answer immediately whatever
        # the queue looks like; only genuinely new misses count
        # against the queue bound.
        keys = lane.evaluator.keys_for(submission.candidates)
        resolved: Dict[str, Any] = {}
        new_keys: List[str] = []
        for key, candidate in zip(keys, submission.candidates):
            if key in resolved or key in lane.pending:
                continue
            hit, value = self.cache.get(key)
            if hit:
                resolved[key] = value
            else:
                new_keys.append(key)
        if new_keys and not submission.no_coalesce \
                and self._queue_depth() + len(new_keys) \
                > self.config.max_queue:
            return error_response(
                "submit", "overloaded",
                f"pending queue would exceed {self.config.max_queue}"
                f" candidates",
                retry_after_ms=self.config.max_wait_ms)
        hits = sum(1 for key in keys if key in resolved)
        self._tenant_count(tenant, "hits", hits)
        self._tenant_count(tenant, "misses", len(keys) - hits)
        self._inflight[tenant] = inflight + count
        try:
            if submission.no_coalesce:
                fresh = await self._price_direct(lane, submission,
                                                 keys, resolved)
            else:
                fresh = await self._price_coalesced(lane, submission,
                                                    keys, resolved)
        except Exception as error:
            # The daemon keeps answering: whatever the oracle raised
            # becomes this request's error envelope.
            if not isinstance(error, ReproError):
                _log.exception("pricing a submission failed")
            return error_response("submit", "internal", str(error))
        finally:
            remaining = self._inflight.get(tenant, 0) - count
            if remaining > 0:
                self._inflight[tenant] = remaining
            else:
                self._inflight.pop(tenant, None)
        results = []
        for key, candidate in zip(keys, submission.candidates):
            if key in fresh:  # first occurrence: freshly priced
                value = resolved[key] = fresh.pop(key)
                cached = False
            else:
                value, cached = resolved[key], True
            results.append({"candidate": dict(candidate),
                            "value": value, "key": key,
                            "cached": cached})
        self.metrics.histogram("serve.request_latency_s").record(
            loop.time() - arrival)
        self.metrics.counter("serve.requests").inc()
        self.metrics.counter("serve.candidates").inc(count)
        return {"ok": True, "op": "submit",
                "objective": submission.objective,
                "tenant": tenant, "results": results}

    async def _price_direct(self, lane: Lane, submission: Submission,
                            keys: List[str],
                            resolved: Mapping[str, Any]
                            ) -> Dict[str, Any]:
        """Coalescing disabled: price this request's misses as their
        own batch (the benchmark baseline — keys and values are
        unchanged, only the batch population shrinks)."""
        misses: Dict[str, Any] = {}
        for key, candidate in zip(keys, submission.candidates):
            if key not in resolved and key not in misses:
                misses[key] = candidate
        if not misses:
            return {}
        loop = asyncio.get_running_loop()
        outcomes = await loop.run_in_executor(
            self._oracle, lane.evaluator.map_batch,
            list(misses.values()))
        self.metrics.counter("serve.flushes").inc()
        self.metrics.histogram("serve.batch_occupancy").record(
            len(misses))
        return {key: outcome.value
                for key, outcome in zip(misses, outcomes)}

    async def _price_coalesced(self, lane: Lane,
                               submission: Submission,
                               keys: List[str],
                               resolved: Mapping[str, Any]
                               ) -> Dict[str, Any]:
        """Park this request's misses on the shared pending set and
        wait for the flush(es) that price them."""
        loop = asyncio.get_running_loop()
        source = next(self._submissions)
        waiters: Dict[str, "asyncio.Future[Any]"] = {}
        for key, candidate in zip(keys, submission.candidates):
            if key in resolved or key in waiters:
                continue
            entry = lane.pending.get(key)
            if entry is None:
                entry = _Pending(candidate=candidate)
                lane.pending[key] = entry
            entry.sources.add(source)
            future: "asyncio.Future[Any]" = loop.create_future()
            entry.waiters.append(future)
            waiters[key] = future
        if not waiters:
            return {}
        self._set_queue_gauge()
        if len(lane.pending) >= self.config.max_batch:
            self._schedule_flush(lane)
        elif lane.timer is None:
            lane.timer = loop.call_later(
                self.config.max_wait_ms / 1000.0,
                self._schedule_flush, lane)
        values = await asyncio.gather(*waiters.values())
        return dict(zip(waiters, values))

    def _schedule_flush(self, lane: Lane) -> None:
        if lane.timer is not None:
            lane.timer.cancel()
            lane.timer = None
        task = asyncio.get_running_loop().create_task(
            self._flush(lane))
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    async def _flush(self, lane: Lane) -> None:
        """Price up to ``max_batch`` pending entries as one oracle
        batch and wake every (still-listening) waiter."""
        if lane.timer is not None:
            lane.timer.cancel()
            lane.timer = None
        if not lane.pending:
            return
        taken = list(lane.pending.items())[:self.config.max_batch]
        for key, _ in taken:
            del lane.pending[key]
        self._set_queue_gauge()
        entries = [entry for _, entry in taken]
        self.metrics.counter("serve.flushes").inc()
        self.metrics.histogram("serve.batch_occupancy").record(
            len(entries))
        sources: Set[int] = set()
        for entry in entries:
            sources |= entry.sources
        if len(sources) > 1:
            self.metrics.counter("serve.coalesced_batches").inc()
            self.metrics.counter("serve.coalesced_candidates").inc(
                len(entries))
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._oracle, lane.evaluator.map_batch,
                [entry.candidate for entry in entries])
        except Exception as error:
            # Answer every parked waiter whatever the oracle raised:
            # the entries have already left the pending set.
            if not isinstance(error, ReproError):
                _log.exception("flush of %d candidates failed",
                               len(entries))
            failure = ServeError(f"oracle failed: {error}")
            for entry in entries:
                for future in entry.waiters:
                    if not future.done():
                        future.set_exception(failure)
            return
        for entry, outcome in zip(entries, outcomes):
            for future in entry.waiters:
                if not future.done():
                    future.set_result(outcome.value)
        if len(lane.pending) >= self.config.max_batch:
            self._schedule_flush(lane)

    # -- accounting ---------------------------------------------------

    def _tenant_count(self, tenant: str, name: str,
                      amount: int) -> None:
        if amount:
            self.metrics.counter(
                f"engine.cache.tenant.{tenant}.{name}").inc(amount)

    def tenant_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant cache counters, recovered from the namespaced
        metrics (``engine.cache.tenant.<label>.<counter>``) — the
        registry IS the store; there is no parallel tree."""
        return self.metrics.grouped("engine.cache.tenant.")

    def stats(self) -> Dict[str, Any]:
        """The dashboard snapshot the ``stats`` op returns."""
        value = self.metrics.value
        latency = self.metrics.histogram(
            "serve.request_latency_s").summary()
        occupancy = self.metrics.histogram(
            "serve.batch_occupancy").summary()
        return {
            "serve": {
                "requests": value("serve.requests"),
                "candidates": value("serve.candidates"),
                "flushes": value("serve.flushes"),
                "coalesced_batches": value(
                    "serve.coalesced_batches"),
                "coalesced_candidates": value(
                    "serve.coalesced_candidates"),
                "dropped_responses": value(
                    "serve.dropped_responses"),
                "queue_depth": self._queue_depth(),
                "request_latency_s": latency,
                "batch_occupancy": occupancy,
            },
            "cache": self.cache.stats(),
            "tenants": self.tenant_stats(),
            "lanes": {name: lane.evaluator.stats()
                      for name, lane in self._lanes.items()},
        }
