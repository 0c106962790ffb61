"""Per-layer self-time tracing from outside the program.

:func:`install` replaces each layer's public functions with a wrapper
that, while the :class:`Recorder` is on, counts calls and items and
measures self time: a call's duration minus the part of it spent in
wrapped calls of *other* layers on the same thread.  A call nested
inside a call of its own layer (``FunnelStrategy.tell`` telling its
inner ``RandomStrategy``) is folded into the outer call.  Functions
imported by name into other modules are patched in each of those
modules too, since that is where the call site looks the name up.

The fleet engine's own ``fleet.plan/gather/price/solve/emit`` spans are
harvested by running each wrapped ``run_fleet`` call under a private
:class:`repro.telemetry.Tracer` (installed with ``use_tracer`` for the
duration of that call only, so the DSE loops' per-evaluation trace
events stay switched off).

:func:`calibrate` times no-ops through the same wrapper; the minimum
over many rounds is the wrapper's own cost per call, split into the
part inside a call's timed interval and the part its caller pays, and
:meth:`Recorder.metrics` subtracts both from every layer's self time.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional

#: Layer names, in the order the ROADMAP lists the blocking steps.
LAYERS = (
    "spec", "serve.protocol", "engine.key", "engine.cache",
    "engine.evaluator", "dse", "dse.objectives", "hw.batch",
    "system.fleet", "system.mission", "serve.server",
)

#: The fleet engine's phase spans, harvested per ``run_fleet`` call.
FLEET_PHASES = ("plan", "gather", "price", "solve", "emit")

Items = Callable[[tuple, Any], int]


class LayerStats:
    """Accumulated counts for one layer (mutated in place by wrappers)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.items = 0
        self.self_s = 0.0
        #: Wrapped calls of other layers made from inside this layer.
        self.child_calls = 0
        #: Layer-specific counters (cache hits, fleet bytes, phases...).
        self.extra: Dict[str, float] = {}

    def add(self, name: str, amount: float) -> None:
        self.extra[name] = self.extra.get(name, 0.0) + amount


class Recorder:
    """Holds every layer's stats and the on/off switch.

    Wrappers pass straight through while ``on`` is false, so set-up
    work and output checks stay out of the window being measured.

    Attributes:
        clock: What self time is measured in: ``time.perf_counter``
            (wall time, the default) or ``time.thread_time`` (CPU time
            of the calling thread, so waits for the GIL drop out).
        inner_s: Calibrated wrapper cost inside a call's own timed
            interval (charged to the call's layer).
        outer_s: Calibrated wrapper cost outside it (charged to the
            calling layer, once per wrapped child call).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.on = False
        self.layers = {name: LayerStats() for name in LAYERS}
        self.inner_s = 0.0
        self.outer_s = 0.0
        self._local = threading.local()

    def reset(self) -> None:
        for stats in self.layers.values():
            stats.reset()

    def wrap(self, layer: str, label: str, fn: Callable,
             items: Optional[Items] = None,
             observe: Optional[Callable[[LayerStats, tuple, Any], None]]
             = None, split: bool = False) -> Callable:
        """``fn`` wrapped to record into ``layer``; with ``split`` its
        self time is also kept apart under ``<label>_self_s``."""
        stats = self.layers[layer]
        recorder = self
        local = self._local
        clock = self.clock
        label_self = f"{label}_self_s"
        label_calls = f"{label}_calls"

        def wrapper(*args, **kwargs):
            if not recorder.on:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack and stack[-1][0] is stats:
                return fn(*args, **kwargs)
            frame = [stats, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent[2] += 1
            own = elapsed - frame[1]
            stats.calls += 1
            stats.self_s += own
            stats.child_calls += frame[2]
            stats.items += items(args, result) if items is not None else 1
            if split:
                stats.add(label_self, own)
                stats.add(label_calls, 1)
            if observe is not None:
                observe(stats, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    def corrected_self_s(self, self_s: float, calls: float,
                         child_calls: float) -> float:
        """``self_s`` less the wrapper cost its calls and their wrapped
        child calls put in it."""
        return max(self_s - calls * self.inner_s
                   - child_calls * self.outer_s, 0.0)

    def metrics(self, wall_s: float, *,
                only: Optional[tuple] = None) -> Dict[str, float]:
        """Flat per-layer metrics, calibrated wrapper cost subtracted;
        ``share`` is self time over ``wall_s``."""
        out: Dict[str, float] = {}
        for name in only or LAYERS:
            stats = self.layers[name]
            self_s = self.corrected_self_s(stats.self_s, stats.calls,
                                           stats.child_calls)
            out[f"{name}.calls"] = stats.calls
            out[f"{name}.items"] = stats.items
            out[f"{name}.self_s"] = self_s
            out[f"{name}.share"] = self_s / wall_s if wall_s > 0 else 0.0
        return out


def calibrate(recorder: Recorder, rounds: int = 200,
              calls: int = 200) -> float:
    """Calibrate the wrapper's own cost with a no-op, as the minimum
    over ``rounds`` (the harness floor, not its noise).

    A parent wraps ``calls`` wrapped no-op children; per child call,
    the no-op's recorded self time less a bare call is the inner cost,
    and the parent's recorded self time less a bare loop is the outer
    cost.  Returns the whole per-call cost in seconds.
    """
    def noop():
        return None

    def parent():
        for _ in range(calls):
            child()

    def bare():
        for _ in range(calls):
            noop()

    clock = recorder.clock
    probe = Recorder(clock)
    probe.layers = {"spec": LayerStats(), "dse": LayerStats()}
    child = probe.wrap("spec", "noop", noop)
    wrapped_parent = probe.wrap("dse", "loop", parent)
    inner = outer = float("inf")
    for _ in range(rounds):
        start = clock()
        bare()
        bare_s = (clock() - start) / calls
        probe.reset()
        probe.on = True
        wrapped_parent()
        probe.on = False
        inner = min(inner, probe.layers["spec"].self_s / calls - bare_s)
        outer = min(outer, probe.layers["dse"].self_s / calls - bare_s)
    recorder.inner_s = max(inner, 0.0)
    recorder.outer_s = max(outer, 0.0)
    return recorder.inner_s + recorder.outer_s


def _count(args: tuple, result: Any) -> int:
    return len(args[1])


def _count_result(args: tuple, result: Any) -> int:
    return len(result)


def _cache_get(stats: LayerStats, args: tuple, result: Any) -> None:
    if result[0]:
        stats.add("hits", 1)


def _batch_pairs(args: tuple, result: Any) -> int:
    return len(args[0]) * len(args[1])


def _batch_rows(stats: LayerStats, args: tuple, result: Any) -> None:
    stats.add("rows", len(args[0]))


def _fleet_items(args: tuple, result: Any) -> int:
    return len(result.results)


def install(recorder: Recorder) -> None:
    """Patch every layer's public functions to record into
    ``recorder`` (once per process: the patches stack)."""
    import repro.benchmarksuite.runner as suite_runner
    import repro.dse.objectives as objectives
    import repro.hw.batch as hw_batch
    import repro.serve.server as server
    import repro.spec as spec
    import repro.spec.loader as loader
    import repro.system.faults as faults
    import repro.system.fleet as fleet
    import repro.system.mission as mission
    from repro.dse.funnel import FunnelStrategy
    from repro.dse.search import ConfigStrategy, RandomStrategy
    from repro.engine.cache import ResultCache
    from repro.engine.evaluator import Evaluator
    from repro.telemetry import Tracer, use_tracer

    wrap = recorder.wrap

    load = wrap("spec", "load_scenario", loader.load_scenario)
    loader.load_scenario = spec.load_scenario = load

    for name in ("decode_line", "encode_line"):
        setattr(server, name,
                wrap("serve.protocol", name, getattr(server, name)))
    server.decode_submission = wrap(
        "serve.protocol", "decode_submission", server.decode_submission,
        items=lambda args, result: len(result.candidates))

    Evaluator.key_for = wrap("engine.key", "key_for", Evaluator.key_for)
    ResultCache.get = wrap("engine.cache", "get", ResultCache.get,
                           observe=_cache_get, split=True)
    ResultCache.put = wrap("engine.cache", "put", ResultCache.put,
                           split=True)
    Evaluator.map_batch = wrap("engine.evaluator", "map_batch",
                               Evaluator.map_batch, items=_count)

    FunnelStrategy.ask = wrap("dse", "funnel.ask", FunnelStrategy.ask,
                              items=_count_result)
    FunnelStrategy.tell = wrap("dse", "funnel.tell", FunnelStrategy.tell,
                               items=_count)
    RandomStrategy.ask = wrap("dse", "random.ask", RandomStrategy.ask,
                              items=_count_result)
    RandomStrategy.tell = wrap("dse", "random.tell", ConfigStrategy.tell,
                               items=_count)

    mission_cls = objectives.MissionObjective
    for name in ("pricing_screen_batch", "evaluate_batch"):
        setattr(mission_cls, name,
                wrap("dse.objectives", f"mission.{name}",
                     getattr(mission_cls, name), items=_count))
    mission_cls.__call__ = wrap("dse.objectives", "mission.__call__",
                                mission_cls.__call__)
    objectives.SuiteObjective.evaluate_batch = wrap(
        "dse.objectives", "suite.evaluate_batch",
        objectives.SuiteObjective.evaluate_batch, items=_count)

    batch = wrap("hw.batch", "batch_estimate", hw_batch.batch_estimate,
                 items=_batch_pairs, observe=_batch_rows)
    for module in (hw_batch, objectives, fleet, suite_runner):
        module.batch_estimate = batch

    harvest = Tracer()
    run_fleet = fleet.run_fleet

    def harvested_run_fleet(*args, **kwargs):
        if not recorder.on:
            return run_fleet(*args, **kwargs)
        with use_tracer(harvest):
            return run_fleet(*args, **kwargs)

    def fleet_observe(stats: LayerStats, args: tuple, result: Any) -> None:
        stats.add("alloc_bytes", result.alloc_bytes)
        stats.add("batch_fallbacks", result.scalar_fallback)
        for span in harvest.spans:
            phase = span.name.partition(".")[2]
            if phase in FLEET_PHASES:
                stats.add(f"{phase}_s", span.duration_s)
        harvest.clear()

    fleet.run_fleet = wrap("system.fleet", "run_fleet",
                           harvested_run_fleet, items=_fleet_items,
                           observe=fleet_observe)

    flown = wrap("system.mission", "run_mission", mission.run_mission)
    mission.run_mission = faults.run_mission = flown


def extras(recorder: Recorder) -> Dict[str, float]:
    """The layer-specific per-layer metrics the wrappers collect."""
    cache = recorder.layers["engine.cache"]
    fleet = recorder.layers["system.fleet"]
    hw = recorder.layers["hw.batch"]
    gets = cache.extra.get("get_calls", 0.0)
    out = {
        "engine.cache.hit_ratio":
            cache.extra.get("hits", 0.0) / gets if gets else 0.0,
    }
    for label in ("get", "put"):
        # Cache probes call nothing wrapped, so only the inner cost
        # applies.
        out[f"engine.cache.{label}_self_s"] = recorder.corrected_self_s(
            cache.extra.get(f"{label}_self_s", 0.0),
            cache.extra.get(f"{label}_calls", 0.0), 0)
    out.update({
        "hw.batch.rows": hw.extra.get("rows", 0.0),
        "system.fleet.alloc_bytes_per_rollout":
            fleet.extra.get("alloc_bytes", 0.0) / fleet.items
            if fleet.items else 0.0,
        "system.fleet.batch_fallbacks":
            fleet.extra.get("batch_fallbacks", 0.0),
    })
    for phase in FLEET_PHASES:
        out[f"system.fleet.{phase}_s"] = fleet.extra.get(f"{phase}_s", 0.0)
    return out
