"""Vectorized fleet mission engine: batched closed-form rollouts.

:func:`~repro.system.mission.run_mission` simulates ONE (tier, scenario)
pair per call through a time-stepped Python loop — fine for a single
mission, hopeless for the mission-space sweeps the paper's §2.4/§2.6
argument actually needs (tiers × scenarios × Monte Carlo perturbations).
This module evaluates a whole ``(n_rollouts,)`` population at once:

- **Pipeline latency** for every rollout is priced in ONE
  :func:`repro.hw.batch.batch_estimate` call over the population's
  deduplicated platform × frame-profile block (rollouts whose platform
  is not SoA-priceable fall back to scalar ``estimate`` calls, mirroring
  the engine's :class:`~repro.errors.BatchFallback` discipline).
- **Mission outcomes** reduce to closed form: the waypoint chase is
  deterministic given ``safe_speed``, so the dt-quantized traversal is a
  pure function of the step index over the course's cumulative arc
  length.  The first step whose travel budget covers the course is the
  completion step; the first step whose energy draw exceeds the battery
  budget is the cutoff; the timeout bound is the first step at or past
  ``max_duration_s``.  No per-step loop at all — three integer step
  counts per rollout, computed as fused numpy.

**Equivalence contract**: every rollout's :class:`MissionResult` is
**exactly equal**, field for field, to ``run_mission`` on the same
(config, tier) — same dt-quantized time, energy, distance, and failure
reason.  Two ingredients make this hold at the bits:

1. the scalar loop's per-step quantities are multiplication forms
   (``steps * dt``, ``(steps + 1) * step_energy``, ...), never running
   sums, so the closed form evaluates the *same expressions* at the
   final step index; and
2. every vectorized expression mirrors the scalar association order
   with operations that numpy computes identically to Python floats
   (``+ - * /``, ``sqrt``, ``min``/``max``).  The one op where numpy's
   SIMD path rounds differently from CPython — ``x ** 1.5`` inside
   hover power — stays a per-element CPython ``pow``; the rest of hover
   power is column arithmetic
   (:meth:`~repro.system.robot.UavPhysics.hover_power_column`).

The contract is enforced by ``tests/system/test_fleet.py`` and the
hypothesis suite ``tests/props/test_property_fleet.py``.

**Courses** are planned once per process, not once per call: the
``fleet.plan`` phase resolves each rollout's course through the
content-keyed store of :mod:`repro.system.courses`, with a per-call
identity memo so a population sharing one world computes one content
key.  Perturbations never touch the world, so every study after the
first over the same scenario finds its course in the store.

On top of the engine, :class:`FleetStudy` runs seeded Monte Carlo
sweeps: per-trial perturbations of battery capacity, payload mass,
sensor rate, and workload scale, shared across tiers (paired draws, so
tier comparisons see the same weather), summarized per tier as success
rates and p50/p90/p99 mission-time / energy statistics.

**Memory architecture**: the solve phase writes every column
through explicit ``out=`` ufunc calls into a
:class:`~repro.engine.arena.BatchArena` when one is supplied — same
operations, same association order, so the equivalence contract is
untouched while steady-state sweeps stop allocating.  ``chunk_size``
streams arbitrarily large populations through a fixed-size arena
window.  A study never builds per-rollout objects on its critical
path: its population is a view over the ``(trials, 4)`` factor
matrix, gathered and priced as columns straight from that matrix, and
:class:`FleetResult` owns plain result columns that become
:class:`MissionResult` rows only when a caller reads them.  ``jobs >
1`` sends each worker only its shard spec (config, tiers, a slice of
the factor matrix) plus the course the parent resolved, so no worker
plans, and takes back plain result columns, which the parent
concatenates — no row objects are built on either side of the process
boundary.
"""

from __future__ import annotations

import collections.abc
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.profile import DIVERGENCE_DERATING
from repro.engine.arena import BatchArena, Workspace
from repro.errors import ConfigurationError
from repro.hw.batch import (
    PlatformSoA,
    ProfileSoA,
    batch_estimate,
    is_soa_priceable,
)
from repro.hw.platform import Platform
from repro.system.courses import ensure_course, lookup_course, pin_course
from repro.system.mission import Course, MissionConfig, MissionResult
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiling import get_alloc_meter
from repro.telemetry.tracer import get_tracer

__all__ = [
    "FleetPerturbation",
    "FleetResult",
    "FleetRollout",
    "FleetStudy",
    "FleetStudyResult",
    "TierStatistics",
    "ensure_course",
    "run_fleet",
    "tier_rollouts",
]

#: ``(tier name, platform, mass_kg, power_w)`` — the ladder row shape
#: shared with :func:`~repro.system.mission.sweep_compute_tiers`.
Tier = Tuple[str, Platform, float, float]


# -- the rollout population -------------------------------------------

@dataclass(frozen=True)
class FleetRollout:
    """One (scenario, compute tier) pair in a fleet population.

    Attributes:
        name: Label carried through to statistics grouping (typically
            the tier name).
        config: Mission scenario (possibly a perturbed variant).
        platform: Compute platform model for the tier.
        compute_mass_kg: Installed module mass.
        compute_power_w: Installed module power draw.
    """

    name: str
    config: MissionConfig
    platform: Platform
    compute_mass_kg: float
    compute_power_w: float


def tier_rollouts(config: MissionConfig,
                  tiers: Sequence[Tier]) -> List[FleetRollout]:
    """One rollout per ladder tier — the fleet-engine equivalent of
    :func:`~repro.system.mission.sweep_compute_tiers`."""
    if not tiers:
        raise ConfigurationError("need at least one tier")
    return [FleetRollout(name=name, config=config, platform=platform,
                         compute_mass_kg=mass, compute_power_w=power)
            for name, platform, mass, power in tiers]


@dataclass(frozen=True)
class FleetResult:
    """A priced fleet population.

    The engine's output is columnar: ``results`` is a read-only view
    over result columns the result owns, and rows are built only when
    read (``len`` never builds one, ``results[i]`` builds one, iteration
    builds them all in one bulk pass).

    Attributes:
        rollouts: The population — exactly as submitted for
            :func:`run_fleet`, or a study's lazily built rollout view
            (see :meth:`FleetStudy.rollouts`).
        results: Per-rollout :class:`MissionResult` rows, in input
            order, each exactly equal to ``run_mission`` on that
            rollout.
        batch_priced: Rollouts whose pipeline latency came from the one
            SoA :func:`~repro.hw.batch.batch_estimate` pass.
        scalar_fallback: Rollouts priced through scalar ``estimate``
            (non-SoA-priceable platforms).
    """

    rollouts: Sequence[FleetRollout]
    results: Sequence[MissionResult]
    batch_priced: int
    scalar_fallback: int
    #: Exact bytes of numpy working set the engine allocated for this
    #: population (the rollout SoA columns + closed-form intermediates;
    #: see ``alloc_bytes_per_rollout``).  The instrument behind the
    #: ROADMAP's allocation-tax item: if bytes/rollout grows with
    #: population size, allocation effects are eating the speedup.
    alloc_bytes: int = 0

    def __len__(self) -> int:
        return len(self.results)

    @property
    def alloc_bytes_per_rollout(self) -> float:
        """Engine working-set bytes per rollout (0 on empty fleets)."""
        if not self.results:
            return 0.0
        return self.alloc_bytes / len(self.results)


def _result_rows(columns: Dict[str, np.ndarray]) -> List[MissionResult]:
    """Materialize result columns as :class:`MissionResult` rows.

    Bulk-converts columns to Python scalars first (tolist is one C
    pass; 12 per-element float() calls per rollout are not).
    """
    rows = zip(*(columns[name].tolist() for name in _RESULT_COLUMNS))
    results = []
    for (ok, late, elapsed_i, distance_i, energy_i, mean_speed_i,
         safe_speed_i, latency_i, compute_power_i, hover_power_i,
         total_mass_i, endurance_i) in rows:
        results.append(MissionResult(
            success=ok,
            failure_reason="" if ok else
            ("timeout" if late else "battery"),
            mission_time_s=elapsed_i,
            distance_m=distance_i,
            energy_j=energy_i,
            mean_speed_m_s=mean_speed_i,
            safe_speed_m_s=safe_speed_i,
            pipeline_latency_s=latency_i,
            compute_power_w=compute_power_i,
            hover_power_w=hover_power_i,
            total_mass_kg=total_mass_i,
            endurance_s=endurance_i,
        ))
    return results


def _position(index, n: int) -> int:
    """``index`` as a non-negative position into ``n`` items."""
    i = operator.index(index)
    if i < 0:
        i += n
    if not 0 <= i < n:
        raise IndexError(f"index {index} out of range for {n} rows")
    return i


class _ResultRows(collections.abc.Sequence):
    """Read-only :class:`MissionResult` rows over owned result columns.

    ``columns`` maps each :data:`_RESULT_COLUMNS` name to an ``(n,)``
    array no other object writes.  ``len`` is O(1) and builds nothing;
    ``[i]`` builds one row, a slice a tuple of rows, and iteration
    every row in one bulk pass.  Equal to another view or to a tuple of
    rows exactly when the rows are equal.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns["succeeded"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(_result_rows({name: column[index] for name, column
                                       in self.columns.items()}))
        i = _position(index, len(self))
        return _result_rows({name: column[i:i + 1] for name, column
                             in self.columns.items()})[0]

    def __iter__(self) -> Iterator[MissionResult]:
        return iter(_result_rows(self.columns))

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if isinstance(other, _ResultRows):
            # Row equality is column equality: a row's failure reason
            # is a function of its (succeeded, timed_out) pair.
            return all(np.array_equal(self.columns[name],
                                      other.columns[name])
                       for name in _RESULT_COLUMNS)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class _StudyRollouts(collections.abc.Sequence):
    """A study population as a view over its factor matrix.

    Rollout ``i`` flies trial ``i // T`` on tier ``i % T`` (``T`` tiers,
    trial-major).  The engine reads ``config``, ``tiers`` and
    ``factors`` as columns and never builds a rollout; a
    :class:`FleetRollout` is built only when read, and each trial's
    rollouts are built together on first access and kept, so the tiers
    of a trial share one perturbed config object.  Slices return
    tuples.
    """

    __slots__ = ("config", "tiers", "factors", "_trials")

    def __init__(self, config: MissionConfig, tiers: Tuple[Tier, ...],
                 factors: np.ndarray) -> None:
        self.config = config
        self.tiers = tiers
        self.factors = factors
        self._trials: Dict[int, Tuple[FleetRollout, ...]] = {}

    def __len__(self) -> int:
        return len(self.factors) * len(self.tiers)

    def _trial(self, trial: int) -> Tuple[FleetRollout, ...]:
        rows = self._trials.get(trial)
        if rows is None:
            rows = self._trials[trial] = _perturbed_population(
                self.config, self.tiers, self.factors[trial])
        return rows

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        trial, tier = divmod(_position(index, len(self)), len(self.tiers))
        return self._trial(trial)[tier]

    def __iter__(self) -> Iterator[FleetRollout]:
        for trial in range(len(self.factors)):
            yield from self._trial(trial)

    def __eq__(self, other) -> bool:
        # Compares as the tuple of rollouts it used to be.
        if isinstance(other, (_StudyRollouts, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


# -- closed-form step counts ------------------------------------------

def _first_count(unit: np.ndarray, target: np.ndarray,
                 strict: bool, ws: Optional[Workspace] = None,
                 name: str = "count") -> np.ndarray:
    """Smallest integer count ``n >= 0`` with ``n * unit >= target``
    (``>`` when ``strict``), elementwise, under float64 arithmetic.

    Counts are float64 (exact for every reachable step index) with
    ``inf`` where no finite count satisfies the bound.  The seed guess
    comes from a rounded division, then bounded fixup sweeps walk it
    onto the exact threshold of the *product* expression — the
    comparison the scalar loop actually evaluates — so the count is
    right even when ``target / unit`` rounds across an integer.

    Every step is an explicit ``out=`` ufunc (selects are masked
    :func:`numpy.copyto`, value-identical to ``np.where``) so the
    scratch buffers come from ``ws`` — an arena workspace on the hot
    path, fresh allocations otherwise — without changing a single
    operation or its association order.
    """
    unit = np.broadcast_to(np.asarray(unit, dtype=float),
                           np.broadcast(unit, target).shape)
    target = np.broadcast_to(np.asarray(target, dtype=float), unit.shape)
    if ws is None:
        ws = Workspace(None, "")
    shape = unit.shape

    ratio = ws.out(name + ".ratio", shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(target, unit, out=ratio)
    n = ws.out(name, shape)
    if strict:
        np.floor(ratio, out=n)
        np.add(n, 1.0, out=n)
    else:
        np.ceil(ratio, out=n)
    np.maximum(n, 0.0, out=n)
    # adjustable = isfinite(target) & isfinite(unit) & (unit > 0)
    #              & isfinite(n)  — evaluated before n's inf fill.
    adjustable = ws.out(name + ".adjustable", shape, np.bool_)
    mask = ws.out(name + ".mask", shape, np.bool_)
    np.isfinite(target, out=adjustable)
    np.isfinite(unit, out=mask)
    np.logical_and(adjustable, mask, out=adjustable)
    np.greater(unit, 0, out=mask)
    np.logical_and(adjustable, mask, out=adjustable)
    np.isfinite(n, out=mask)
    np.logical_and(adjustable, mask, out=adjustable)
    np.logical_not(adjustable, out=mask)
    np.copyto(n, np.inf, where=mask)

    step = ws.out(name + ".step", shape)
    product = ws.out(name + ".product", shape)
    satisfied = ws.out(name + ".satisfied", shape, np.bool_)
    compare = np.greater if strict else np.greater_equal

    # The seed is within a couple of steps of the true threshold; the
    # sweeps are bounded (never `while`) because inf entries would
    # otherwise walk forever (inf - 1 == inf).
    for _ in range(3):
        np.subtract(n, 1.0, out=step)  # down = n - 1
        with np.errstate(invalid="ignore"):
            np.multiply(step, unit, out=product)
        compare(product, target, out=satisfied)
        # n = where(adjustable & (down >= 0) & satisfied(down), down, n)
        np.greater_equal(step, 0.0, out=mask)
        np.logical_and(mask, satisfied, out=mask)
        np.logical_and(adjustable, mask, out=mask)
        np.copyto(n, step, where=mask)
    for _ in range(3):
        with np.errstate(invalid="ignore"):
            np.multiply(n, unit, out=product)
        compare(product, target, out=satisfied)
        # n = where(adjustable & ~satisfied(n), n + 1, n)
        np.logical_not(satisfied, out=satisfied)
        np.logical_and(adjustable, satisfied, out=mask)
        np.add(n, 1.0, out=step)
        np.copyto(n, step, where=mask)
    return n


# -- the engine --------------------------------------------------------

#: Result-column order of the solve phase's output and the row order
#: :func:`_result_rows` unpacks.
_RESULT_COLUMNS: Tuple[str, ...] = (
    "succeeded", "timed_out", "elapsed", "distance", "energy",
    "mean_speed", "safe_speed", "latency", "compute_power",
    "hover_power", "total_mass", "endurance",
)

#: Solve-phase inputs the gather and price phases produce, one ``(n,)``
#: column each, whichever path (rollout objects or a study's factor
#: matrix) produced them.
_GATHER_COLUMNS: Tuple[str, ...] = (
    "period", "actuation", "sensing_range", "accel", "max_speed", "dt",
    "max_duration", "budget", "length", "total_mass", "hover_power",
    "compute_power",
)

#: Solve result: ``(columns, batch_priced, scalar_fallback, alloc_bytes)``.
_Solved = Tuple[Dict[str, np.ndarray], int, int, int]


def run_fleet(rollouts: Sequence[FleetRollout], *,
              metrics: Optional[MetricsRegistry] = None,
              arena: Optional[BatchArena] = None,
              chunk_size: Optional[int] = None) -> FleetResult:
    """Evaluate a whole rollout population in fused numpy.

    Args:
        rollouts: The population; rollouts may freely share worlds,
            platforms, and frame profiles (sharing is what makes the
            batch block small — platforms and profiles are deduplicated
            by identity before pricing).  A study's rollout view
            (:meth:`FleetStudy.rollouts`) is gathered and priced as
            columns straight from its factor matrix, without building
            a single rollout.
        metrics: Optional registry receiving ``fleet.rollouts``,
            ``fleet.batch_hits``, ``fleet.batch_fallbacks``, and (when
            chunked) ``fleet.chunks`` / ``fleet.arena_occupancy_pct``.
        arena: Optional :class:`~repro.engine.arena.BatchArena` the
            solve phase writes its columns into — bit-identical to the
            allocating path; pass the same arena across calls to stop
            reallocating.  The result copies the columns it keeps out
            of the arena, so a later call on the same arena never
            changes an earlier result.
        chunk_size: Evaluate the population through a fixed-size arena
            window of at most this many rollouts per pass, bounding the
            engine's working set to ``O(chunk_size)`` instead of
            ``O(n)``.  Results are identical (rollouts are independent;
            chunking changes only where columns land).  A private arena
            is created if none was passed.

    Courses come from the process-wide store
    (:func:`~repro.system.courses.ensure_course`), asked once per
    distinct ``(world, start, goal, radius, laps)`` identity in the
    population; the ``fleet.plan`` span records how many courses this
    call ``planned`` and how many it ``reused`` from the store.

    Returns:
        A :class:`FleetResult` whose per-rollout results are exactly
        equal to :func:`~repro.system.mission.run_mission`.
    """
    if not isinstance(rollouts, _StudyRollouts):
        rollouts = tuple(rollouts)
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(
            f"chunk_size must be >= 1, got {chunk_size}")
    chunks = 0
    with get_tracer().wall_span("fleet.run", track="fleet") as span:
        if chunk_size is None or chunk_size >= len(rollouts):
            result = _run_fleet(rollouts, arena)
        else:
            if arena is None:
                arena = BatchArena()
            chunks = -(-len(rollouts) // chunk_size)
            result = _emit_fleet(rollouts, *_solve_windows(
                rollouts, chunk_size, {}, arena))
    _publish(result, span, metrics,
             **({"chunks": chunks} if chunks else {}))
    if chunks and metrics is not None:
        metrics.counter("fleet.chunks").inc(chunks)
        metrics.counter("fleet.arena_occupancy_pct").inc(
            int(100 * arena.occupancy()))
    return result


def _publish(result: FleetResult, span,
             metrics: Optional[MetricsRegistry],
             **span_args: int) -> None:
    """Stamp a ``fleet.run`` span and publish the ``fleet.*`` counters.

    The one publication path for serial, chunked, and sharded runs, so
    every caller reports the same names for the same totals.
    """
    if get_tracer().enabled and span.args is None:
        span.args = {"rollouts": len(result),
                     "batch_priced": result.batch_priced,
                     "scalar_fallback": result.scalar_fallback,
                     "alloc_bytes": result.alloc_bytes, **span_args}
    if metrics is None:
        return
    metrics.counter("fleet.rollouts").inc(len(result))
    for name, value in (("fleet.batch_hits", result.batch_priced),
                        ("fleet.batch_fallbacks", result.scalar_fallback),
                        ("fleet.alloc_bytes", result.alloc_bytes)):
        if value:
            metrics.counter(name).inc(value)


def _run_fleet(rollouts: Sequence[FleetRollout],
               arena: Optional[BatchArena] = None) -> FleetResult:
    if not len(rollouts):
        return FleetResult(rollouts=rollouts, results=(), batch_priced=0,
                           scalar_fallback=0)
    return _emit_fleet(rollouts, *_solve_range(rollouts, 0, len(rollouts),
                                               {}, arena),
                       borrowed=arena is not None)


def _emit_fleet(rollouts: Sequence[FleetRollout],
                columns: Dict[str, np.ndarray], batch_priced: int,
                scalar_fallback: int, alloc_bytes: int, *,
                borrowed: bool = False) -> FleetResult:
    """Wrap solved columns and their counts as a :class:`FleetResult`.

    ``borrowed`` columns are arena views: the result copies them, so it
    owns every column it reads rows from.
    """
    with get_tracer().profile_span("fleet.emit", track="fleet"):
        results = _ResultRows({
            name: columns[name].copy() if borrowed else columns[name]
            for name in _RESULT_COLUMNS})
    return FleetResult(rollouts=rollouts, results=results,
                       batch_priced=batch_priced,
                       scalar_fallback=scalar_fallback,
                       alloc_bytes=alloc_bytes)


def _solve_range(rollouts: Sequence[FleetRollout], lo: int, hi: int,
                 memo: Dict, arena: Optional[BatchArena]) -> _Solved:
    """Plan, gather, price, and solve rollouts ``[lo, hi)`` into columns.

    ``memo`` is the caller's identity memo of
    :func:`~repro.system.courses.lookup_course`, shared by every window
    of one call so the course store is asked once per distinct world.

    Returns ``(columns, batch_priced, scalar_fallback, alloc_bytes)``
    where ``columns`` maps each :data:`_RESULT_COLUMNS` name to its
    ``(hi - lo,)`` array.  With an arena the columns are **borrowed**
    views — valid until the next kernel call on the same arena — so
    callers must copy them (see :func:`_emit_fleet` and
    :func:`_solve_windows`) before re-entering.
    """
    ws = Workspace(arena, "fleet.")
    if isinstance(rollouts, _StudyRollouts):
        gathered, priced, fell_back = _gather_study(
            rollouts, lo, hi, memo, ws, arena)
    else:
        gathered, priced, fell_back = _gather_rollouts(
            tuple(rollouts[lo:hi]), memo, ws, arena)
    columns, alloc_bytes = _solve_columns(gathered, ws)
    return columns, priced, fell_back, alloc_bytes


def _gather_rollouts(rollouts: Tuple[FleetRollout, ...], memo: Dict,
                     ws: Workspace, arena: Optional[BatchArena],
                     ) -> Tuple[Dict[str, np.ndarray], int, int]:
    """Plan, gather, and price a population of rollout objects.

    Returns the :data:`_GATHER_COLUMNS` plus ``compute_latency``, and
    the batch-priced and scalar-fallback counts.
    """
    n = len(rollouts)
    tracer = get_tracer()
    with tracer.profile_span("fleet.plan", track="fleet") as span:
        courses = []
        planned = reused = 0
        config = course = None
        for rollout in rollouts:
            # A study's tiers share each trial's config object.
            if rollout.config is not config:
                config = rollout.config
                course, fresh = lookup_course(config, memo)
                if fresh is not None:
                    planned += fresh
                    reused += not fresh
            courses.append(course)
        if tracer.enabled:
            span.args = {"planned": planned, "reused": reused}

    # Per-rollout scalar inputs, then hover power as one column per run
    # of rollouts sharing an airframe (UavPhysics.hover_power_column:
    # only its `x ** 1.5` stays a per-element CPython pow).  Runs go in
    # rollout order, so the first invalid mass raises first.
    with tracer.profile_span("fleet.gather", track="fleet"):
        gathered = {name: ws.out(name, (n,)) for name in _GATHER_COLUMNS}
        period = gathered["period"]
        actuation = gathered["actuation"]
        sensing_range = gathered["sensing_range"]
        accel = gathered["accel"]
        max_speed = gathered["max_speed"]
        dt = gathered["dt"]
        max_duration = gathered["max_duration"]
        budget = gathered["budget"]
        length = gathered["length"]
        total_mass = gathered["total_mass"]
        hover_power = gathered["hover_power"]
        compute_power = gathered["compute_power"]
        airframes = []  # (first rollout, uav) wherever the uav changes
        uav = None
        for i, (rollout, course) in enumerate(zip(rollouts, courses)):
            config = rollout.config
            if config.uav is not uav and config.uav != uav:
                uav = config.uav
                airframes.append((i, uav))
            period[i] = 1.0 / config.sensor_rate_hz
            actuation[i] = config.actuation_latency_s
            sensing_range[i] = config.sensing_range_m
            accel[i] = config.uav.max_accel_m_s2
            max_speed[i] = config.uav.max_speed_m_s
            dt[i] = config.time_step_s
            max_duration[i] = config.max_duration_s
            budget[i] = config.battery.usable_energy_j
            length[i] = course.total_length_m
            total_mass[i] = (config.uav.frame_mass_kg
                             + config.battery.mass_kg
                             + rollout.compute_mass_kg)
            compute_power[i] = rollout.compute_power_w
        for (lo, uav), (hi, _) in zip(airframes,
                                      [*airframes[1:], (n, None)]):
            uav.hover_power_column(total_mass[lo:hi],
                                   out=hover_power[lo:hi])

    # Frame-pipeline compute latency: one SoA pass over the population's
    # deduplicated (platform, profile) block; scalar estimates only for
    # platforms the kernel cannot reproduce.
    with tracer.profile_span("fleet.price", track="fleet"):
        compute_latency = gathered["compute_latency"] = ws.out(
            "compute_latency", (n,))
        verdicts = [is_soa_priceable(rollout.platform)
                    for rollout in rollouts]
        priceable = [i for i in range(n) if verdicts[i]]
        fallback = [i for i in range(n) if not verdicts[i]]
        if priceable:
            platform_index: Dict[int, int] = {}
            profile_index: Dict[int, int] = {}
            platforms: List[Platform] = []
            profiles: List = []
            # Arena-backed gather indices: (row, col) into the priced
            # block plus the destination rollout index, so the scatter
            # below runs through reused buffers instead of allocating
            # fresh fancy-index arrays every chunk.
            k = len(priceable)
            price_rows = ws.out("price_rows", (k,), np.intp)
            price_cols = ws.out("price_cols", (k,), np.intp)
            price_dest = ws.out("price_dest", (k,), np.intp)
            for j, i in enumerate(priceable):
                platform = rollouts[i].platform
                row = platform_index.get(id(platform))
                if row is None:
                    row = platform_index[id(platform)] = len(platforms)
                    platforms.append(platform)
                profile = rollouts[i].config.frame_profile
                col = profile_index.get(id(profile))
                if col is None:
                    col = profile_index[id(profile)] = len(profiles)
                    profiles.append(profile)
                price_rows[j] = row
                price_cols[j] = col
                price_dest[j] = i
            cost = batch_estimate(
                PlatformSoA.from_platforms(platforms),
                ProfileSoA.from_profiles(profiles),
                arena=arena)
            # Flat gather from the contiguous (rows, cols) block:
            # flat = row * n_profiles + col, taken through out= into a
            # reused buffer, then scattered to the rollout order.
            np.multiply(price_rows, len(profiles), out=price_rows)
            np.add(price_rows, price_cols, out=price_rows)
            price_latency = ws.out("price_latency", (k,))
            np.take(cost.latency_s.ravel(), price_rows,
                    out=price_latency)
            compute_latency[price_dest] = price_latency
        for i in fallback:
            compute_latency[i] = rollouts[i].platform.estimate(
                rollouts[i].config.frame_profile).latency_s
    return gathered, len(priceable), len(fallback)


def _gather_study(population: _StudyRollouts, lo: int, hi: int,
                  memo: Dict, ws: Workspace, arena: Optional[BatchArena],
                  ) -> Tuple[Dict[str, np.ndarray], int, int]:
    """:func:`_gather_rollouts` for rollouts ``[lo, hi)`` of a study,
    as columns straight from its factor matrix.

    The window's trial range is gathered and priced whole, then cut to
    ``[lo, hi)`` — windows need not align with trials.  Every column
    is value-identical to the rollout-object path (see
    :func:`_study_columns` and :func:`_price_study`).
    """
    config, tiers = population.config, population.tiers
    width = len(tiers)
    trial_lo, trial_hi = lo // width, -(-hi // width)
    factors = population.factors[trial_lo:trial_hi]
    window = slice(lo - trial_lo * width, hi - trial_lo * width)
    tracer = get_tracer()
    with tracer.profile_span("fleet.plan", track="fleet") as span:
        # Perturbations never touch the planning inputs: every trial
        # flies the base config's course.
        course, fresh = lookup_course(config, memo)
        if tracer.enabled:
            span.args = {"planned": int(bool(fresh)),
                         "reused": int(fresh is False)}
    with tracer.profile_span("fleet.gather", track="fleet"):
        gathered = {name: column[window] for name, column
                    in _study_columns(config, tiers, factors, ws).items()}
        gathered["length"] = ws.out("length", (hi - lo,))
        gathered["length"].fill(course.total_length_m)
    with tracer.profile_span("fleet.price", track="fleet"):
        latency, priceable = _price_study(config, tiers, factors, ws,
                                          arena)
        gathered["compute_latency"] = latency[window]
        priced = int(np.count_nonzero(
            np.tile(priceable, len(factors))[window]))
    return gathered, priced, hi - lo - priced


def _solve_columns(gathered: Dict[str, np.ndarray], ws: Workspace,
                   ) -> Tuple[Dict[str, np.ndarray], int]:
    """The closed-form solve over gathered columns: the one copy of the
    mission outcome math, fed by both gather paths.

    ``gathered`` holds the :data:`_GATHER_COLUMNS` plus
    ``compute_latency``.  Returns the :data:`_RESULT_COLUMNS` and the
    population's exact working-set bytes.  Every ufunc writes through
    ``out=`` in the scalar association order; the arena changes where
    the bytes land, never their values (the module docstring's
    equivalence contract).
    """
    period = gathered["period"]
    actuation = gathered["actuation"]
    sensing_range = gathered["sensing_range"]
    accel = gathered["accel"]
    max_speed = gathered["max_speed"]
    dt = gathered["dt"]
    max_duration = gathered["max_duration"]
    budget = gathered["budget"]
    length = gathered["length"]
    hover_power = gathered["hover_power"]
    compute_power = gathered["compute_power"]
    compute_latency = gathered["compute_latency"]
    n = len(period)

    # Pipeline latency and safe speed — broadcast forms of
    # pipeline_latency_s and UavPhysics.safe_speed_m_s, same
    # association order (see the module docstring's contract).
    with get_tracer().profile_span("fleet.solve", track="fleet"):
        # staleness = max(compute_latency - period, 0)
        staleness = ws.out("staleness", (n,))
        np.subtract(compute_latency, period, out=staleness)
        np.maximum(staleness, 0.0, out=staleness)
        # latency = 0.5*period + compute_latency + staleness + actuation
        latency = ws.out("latency", (n,))
        np.multiply(0.5, period, out=latency)
        np.add(latency, compute_latency, out=latency)
        np.add(latency, staleness, out=latency)
        np.add(latency, actuation, out=latency)
        # raw = accel * (sqrt(latency^2 + 2*sensing/accel) - latency)
        raw_speed = ws.out("raw_speed", (n,))
        scratch = ws.out("scratch", (n,))
        np.multiply(latency, latency, out=raw_speed)
        np.multiply(2.0, sensing_range, out=scratch)
        np.divide(scratch, accel, out=scratch)
        np.add(raw_speed, scratch, out=raw_speed)
        np.sqrt(raw_speed, out=raw_speed)
        np.subtract(raw_speed, latency, out=raw_speed)
        np.multiply(accel, raw_speed, out=raw_speed)
        safe_speed = ws.out("safe_speed", (n,))
        np.minimum(raw_speed, max_speed, out=safe_speed)

        total_power = ws.out("total_power", (n,))
        np.add(hover_power, compute_power, out=total_power)
        endurance = ws.out("endurance", (n,))
        np.divide(budget, total_power, out=endurance)
        step_travel = ws.out("step_travel", (n,))
        np.multiply(safe_speed, dt, out=step_travel)
        step_energy = ws.out("step_energy", (n,))
        np.multiply(total_power, dt, out=step_energy)

        # Closed-form step counts.  The scalar loop, per iteration at
        # step index `s`: exit on timeout when s*dt >= max_duration;
        # succeed when the course is consumed, i.e. when
        # s*step_travel >= length (and at least one step has run —
        # consumption happens inside iterations); break on battery when
        # (s+1)*step_energy > budget.  Check order fixes the tie
        # precedence: timeout, then success, then battery.
        n_timeout = _first_count(dt, max_duration, strict=False,
                                 ws=ws, name="n_timeout")
        n_complete = _first_count(step_travel, length, strict=False,
                                  ws=ws, name="n_complete")
        np.maximum(n_complete, 1.0, out=n_complete)
        n_battery = _first_count(step_energy, budget, strict=True,
                                 ws=ws, name="n_battery")
        np.subtract(n_battery, 1.0, out=n_battery)

        # steps = min(min(n_timeout, n_complete), n_battery)
        steps = ws.out("steps", (n,))
        np.minimum(n_timeout, n_complete, out=steps)
        np.minimum(steps, n_battery, out=steps)
        # timed_out = n_timeout <= min(n_complete, n_battery)
        np.minimum(n_complete, n_battery, out=scratch)
        timed_out = ws.out("timed_out", (n,), np.bool_)
        np.less_equal(n_timeout, scratch, out=timed_out)
        # succeeded = ~timed_out & (n_complete <= n_battery)
        mask = ws.out("mask", (n,), np.bool_)
        succeeded = ws.out("succeeded", (n,), np.bool_)
        np.less_equal(n_complete, n_battery, out=mask)
        np.logical_not(timed_out, out=succeeded)
        np.logical_and(succeeded, mask, out=succeeded)

        elapsed = ws.out("elapsed", (n,))
        np.multiply(steps, dt, out=elapsed)
        energy = ws.out("energy", (n,))
        np.multiply(steps, step_energy, out=energy)
        distance = ws.out("distance", (n,))
        np.multiply(steps, step_travel, out=distance)
        np.minimum(distance, length, out=distance)
        mean_speed = ws.out("mean_speed", (n,))
        mean_speed.fill(0.0)
        np.greater(elapsed, 0.0, out=mask)
        np.divide(distance, elapsed, out=mean_speed, where=mask)

    # Exact working-set accounting: the engine's named SoA columns for
    # this population (scratch/mask buffers and _first_count interiors
    # are excluded, exactly as the anonymous numpy temporaries they
    # replaced were).  One nbytes sum per call, published as
    # FleetResult.alloc_bytes and, when a measure_allocations() scope
    # is active, on the global meter.  View nbytes ignores arena
    # capacity, so the value is identical with or without an arena —
    # between serial and sharded runs, and between the two gather paths.
    soa_arrays = (
        *(gathered[name] for name in _GATHER_COLUMNS), compute_latency,
        staleness, latency, raw_speed, safe_speed, total_power,
        endurance, step_travel, step_energy, n_timeout, n_complete,
        n_battery, steps, timed_out, succeeded, elapsed, energy,
        distance, mean_speed,
    )
    alloc_bytes = sum(array.nbytes for array in soa_arrays)
    meter = get_alloc_meter()
    if meter.enabled:
        meter.add("system.fleet.run_fleet", *soa_arrays)

    columns = {
        "succeeded": succeeded, "timed_out": timed_out,
        "elapsed": elapsed, "distance": distance, "energy": energy,
        "mean_speed": mean_speed, "safe_speed": safe_speed,
        "latency": latency, "compute_power": compute_power,
        "hover_power": hover_power, "total_mass": gathered["total_mass"],
        "endurance": endurance,
    }
    return columns, alloc_bytes


def _solve_windows(rollouts: Sequence[FleetRollout], chunk_size: int,
                   memo: Dict, arena: BatchArena) -> _Solved:
    """:func:`_solve_range` through ``chunk_size``-rollout arena windows.

    Each window's borrowed arena columns are copied into owned
    ``(n,)`` result columns before the next window reuses the arena,
    so the return value has :func:`_solve_range`'s shape but outlives
    the arena.  Counts and byte totals are summed over the windows.
    """
    n = len(rollouts)
    out: Dict[str, np.ndarray] = {}
    batch_priced = scalar_fallback = alloc_bytes = 0
    for lo in range(0, n, chunk_size):
        hi = min(lo + chunk_size, n)
        columns, priced, fell_back, nbytes = _solve_range(
            rollouts, lo, hi, memo, arena)
        for name in _RESULT_COLUMNS:
            column = columns[name]
            if name not in out:
                out[name] = np.empty(n, dtype=column.dtype)
            out[name][lo:hi] = column
        batch_priced += priced
        scalar_fallback += fell_back
        alloc_bytes += nbytes
    return out, batch_priced, scalar_fallback, alloc_bytes


def _run_shard(task: Tuple[MissionConfig, Tuple[Tier, ...], np.ndarray,
                           Optional[int], Course]) -> _Solved:
    """Process-pool entry point for one contiguous trial range.

    ``task`` is ``(config, tiers, factors, chunk_size, course)`` — the
    shard's *spec*, with ``factors`` the shard's rows of the study's
    factor matrix and ``course`` the course the parent resolved for
    ``config``.  The worker pins that course in its memo (perturbed
    configs share ``config``'s world and endpoints, so it never plans),
    gathers its columns from its factor slice exactly as the serial
    study gathers them from the whole matrix, solves them with a
    private arena, and returns plain result columns plus counts; no
    row objects are built on either side of the process boundary.
    """
    config, tiers, factors, chunk_size, course = task
    memo: Dict = {}
    pin_course(memo, config, course)
    shard = _StudyRollouts(config, tiers, factors)
    return _solve_windows(shard, chunk_size or len(shard), memo,
                          BatchArena())


# -- Monte Carlo layer -------------------------------------------------

def _perturbed_population(config: MissionConfig, tiers: Sequence[Tier],
                          factors: np.ndarray) -> Tuple[FleetRollout, ...]:
    """One trial's rollouts, one per tier, sharing one perturbed config.

    ``factors`` is the trial's ``(capacity, mass, rate, scale)`` row of
    the factor matrix.  The reference construction of a perturbed
    scenario: the study's rollout view builds its rows here, and
    :func:`_study_columns` defers to it to raise validation errors.
    """
    cap, mass, rate, scale = factors
    perturbed = replace(
        config,
        battery=replace(config.battery,
                        capacity_wh=config.battery.capacity_wh * cap),
        sensor_rate_hz=config.sensor_rate_hz * rate,
        frame_profile=config.frame_profile.scaled(scale),
    )
    return tuple(FleetRollout(name=name, config=perturbed,
                              platform=platform,
                              compute_mass_kg=module_mass * mass,
                              compute_power_w=power)
                 for name, platform, module_mass, power in tiers)


def _check_factors(config: MissionConfig, tiers: Sequence[Tier],
                   factors: np.ndarray) -> None:
    """Raise exactly where :func:`_perturbed_population` would.

    The ``__post_init__`` checks a trial's ``replace`` calls run
    (battery capacity, the scaled profile's counts, the sensor rate),
    plus ``scaled``'s ``factor < 0`` check, as column masks.  Flagged
    trials — and trial 0, which stands in for the checks on fields no
    factor touches — are rebuilt through the reference path in trial
    order, so the first invalid trial raises its own exception.
    """
    if not len(factors):
        return
    cap, _mass, rate, scale = factors.T
    profile = config.frame_profile
    with np.errstate(invalid="ignore"):
        suspect = config.battery.capacity_wh * cap <= 0
        suspect |= scale < 0
        for count in (profile.flops, profile.int_ops, profile.bytes_read,
                      profile.bytes_written):
            scaled = count * scale
            suspect |= (scaled < 0) | np.isnan(scaled)
        suspect |= config.sensor_rate_hz * rate <= 0
    for trial in [0, *np.flatnonzero(suspect).tolist()]:
        _perturbed_population(config, tiers, factors[trial])


def _study_columns(config: MissionConfig, tiers: Sequence[Tier],
                   factors: np.ndarray, ws: Optional[Workspace] = None,
                   ) -> Dict[str, np.ndarray]:
    """The gather columns of a study population, from its factor matrix.

    Returns every :data:`_GATHER_COLUMNS` entry except the course
    ``length`` as an ``(trials * T,)`` column in trial-major order
    (rollout ``i`` is trial ``i // T`` on tier ``i % T``).  Each column
    evaluates the expressions the rollout-object gather evaluates on
    :func:`_perturbed_population`'s rows, in the same association
    order, so every value is bit-identical; ``hover_power`` is
    :meth:`~repro.system.robot.UavPhysics.hover_power_column` (the
    module docstring's ``x ** 1.5`` rule).
    Invalid factors raise what the ``replace`` path raises (see
    :func:`_check_factors`).
    """
    factors = np.asarray(factors, dtype=float)
    _check_factors(config, tiers, factors)
    if ws is None:
        ws = Workspace(None, "fleet.")
    trials, width = len(factors), len(tiers)
    columns = {name: ws.out(name, (trials * width,))
               for name in _GATHER_COLUMNS if name != "length"}
    grid = {name: column.reshape(trials, width)
            for name, column in columns.items()}
    cap, mass, rate = (factors[:, axis, None] for axis in range(3))
    uav, battery = config.uav, config.battery
    # period = 1.0 / sensor_rate_hz, sensor_rate_hz = base rate * rate
    np.multiply(config.sensor_rate_hz, rate, out=grid["period"])
    np.divide(1.0, grid["period"], out=grid["period"])
    for name, value in (("actuation", config.actuation_latency_s),
                        ("sensing_range", config.sensing_range_m),
                        ("accel", uav.max_accel_m_s2),
                        ("max_speed", uav.max_speed_m_s),
                        ("dt", config.time_step_s),
                        ("max_duration", config.max_duration_s)):
        columns[name].fill(value)
    # budget = usable_energy_j = (capacity_wh * cap) * 3600 * usable
    budget = grid["budget"]
    np.multiply(battery.capacity_wh, cap, out=budget)
    np.multiply(budget, 3600.0, out=budget)
    np.multiply(budget, battery.usable_fraction, out=budget)
    # total_mass = (frame + battery) + module_mass * mass
    total_mass = grid["total_mass"]
    np.multiply([module_mass for _, _, module_mass, _ in tiers], mass,
                out=total_mass)
    np.add(uav.frame_mass_kg + battery.mass_kg, total_mass,
           out=total_mass)
    uav.hover_power_column(columns["total_mass"],
                           out=columns["hover_power"])
    grid["compute_power"][:] = [power for _, _, _, power in tiers]
    return columns


def _price_study(config: MissionConfig, tiers: Sequence[Tier],
                 factors: np.ndarray, ws: Workspace,
                 arena: Optional[BatchArena],
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-rollout compute latency of a study population, trial-major.

    SoA-priceable tiers are priced in ONE
    :func:`~repro.hw.batch.batch_estimate` call over (distinct priceable
    platforms) × (trials), whose profile columns are the base profile's
    columns scaled by the trial's workload scale — the values
    ``scaled(scale)`` followed by ``total_bytes`` produce.  Other tiers
    go through scalar ``estimate`` on each trial's scaled profile.

    Returns ``(latency, priceable)``: the ``(trials * T,)`` latency
    column and the ``(T,)`` per-tier SoA verdicts.
    """
    trials, width = len(factors), len(tiers)
    latency = ws.out("compute_latency", (trials * width,))
    grid = latency.reshape(trials, width)
    scale = factors[:, 3]
    priceable = np.array([is_soa_priceable(platform)
                          for _, platform, _, _ in tiers], dtype=bool)
    platforms: List[Platform] = list({
        id(tiers[tier][1]): tiers[tier][1]
        for tier in np.flatnonzero(priceable).tolist()}.values())
    rows = {id(platform): row for row, platform in enumerate(platforms)}
    if platforms:
        profile = config.frame_profile
        profiles = ProfileSoA(
            names=(profile.name,) * trials,
            flops=profile.flops * scale,
            int_ops=profile.int_ops * scale,
            total_bytes=(profile.bytes_read * scale
                         + profile.bytes_written * scale),
            working_set_bytes=np.full(trials, profile.working_set_bytes),
            parallel_fraction=np.full(trials, profile.parallel_fraction),
            derating=np.full(trials,
                             DIVERGENCE_DERATING[profile.divergence]))
        cost = batch_estimate(PlatformSoA.from_platforms(platforms),
                              profiles, arena=arena)
        for tier in np.flatnonzero(priceable).tolist():
            grid[:, tier] = cost.latency_s[rows[id(tiers[tier][1])]]
    fallback = np.flatnonzero(~priceable).tolist()
    if fallback:
        for trial, factor in enumerate(scale):
            profile = config.frame_profile.scaled(factor)
            for tier in fallback:
                grid[trial, tier] = tiers[tier][1].estimate(
                    profile).latency_s
    return latency, priceable


@dataclass(frozen=True)
class FleetPerturbation:
    """Relative half-widths of the per-trial uniform perturbations.

    Each trial draws one factor per axis from
    ``uniform(1 - width, 1 + width)``; a width of 0 pins that axis.

    Attributes:
        battery_capacity: Pack capacity spread (cell aging, cold packs).
        payload_mass: Compute-module mass spread (cabling, mounts).
        sensor_rate: Camera rate spread (exposure-driven frame drops).
        workload_scale: Per-frame compute spread (scene complexity).
    """

    battery_capacity: float = 0.10
    payload_mass: float = 0.10
    sensor_rate: float = 0.10
    workload_scale: float = 0.25

    def __post_init__(self) -> None:
        for name, value in (
                ("battery_capacity", self.battery_capacity),
                ("payload_mass", self.payload_mass),
                ("sensor_rate", self.sensor_rate),
                ("workload_scale", self.workload_scale)):
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(
                    f"{name} width must be in [0, 1), got {value}")

    def widths(self) -> Tuple[float, float, float, float]:
        return (self.battery_capacity, self.payload_mass,
                self.sensor_rate, self.workload_scale)


@dataclass(frozen=True)
class TierStatistics:
    """Per-tier Monte Carlo summary (times/energies over ALL trials,
    failures included — a dead battery at t=400s is still 400s of
    airtime worth counting).

    Attributes:
        tier: Ladder tier name.
        trials: Trials aggregated.
        success_rate: Fraction of trials that completed the course.
        mission_time_p50_s, mission_time_p90_s, mission_time_p99_s:
            Mission-time percentiles.
        energy_p50_j, energy_p99_j: Energy-draw percentiles.
        failure_counts: ``reason -> count`` over failed trials.
    """

    tier: str
    trials: int
    success_rate: float
    mission_time_p50_s: float
    mission_time_p90_s: float
    mission_time_p99_s: float
    energy_p50_j: float
    energy_p99_j: float
    failure_counts: Dict[str, int]


@dataclass(frozen=True)
class FleetStudyResult:
    """Outcome of a :class:`FleetStudy` run."""

    statistics: Tuple[TierStatistics, ...]
    fleet: FleetResult
    trials: int
    seed: int

    @property
    def batch_priced(self) -> int:
        return self.fleet.batch_priced

    @property
    def scalar_fallback(self) -> int:
        return self.fleet.scalar_fallback

    def best_tier(self) -> TierStatistics:
        """Highest success rate, ties broken by lower median time."""
        return min(self.statistics,
                   key=lambda s: (-s.success_rate, s.mission_time_p50_s))

    def to_rows(self) -> List[Dict]:
        """JSON-friendly per-tier rows (CLI/report format)."""
        return [{
            "tier": s.tier,
            "trials": s.trials,
            "success_rate": round(s.success_rate, 4),
            "mission_time_p50_s": round(s.mission_time_p50_s, 2),
            "mission_time_p90_s": round(s.mission_time_p90_s, 2),
            "mission_time_p99_s": round(s.mission_time_p99_s, 2),
            "energy_p50_j": round(s.energy_p50_j, 1),
            "energy_p99_j": round(s.energy_p99_j, 1),
            "failures": dict(s.failure_counts),
        } for s in self.statistics]


@dataclass
class FleetStudy:
    """A seeded Monte Carlo mission sweep over a compute ladder.

    Every trial draws one perturbation vector (battery capacity,
    payload mass, sensor rate, workload scale) and applies it to EVERY
    tier — paired draws, so tier-vs-tier comparisons are made under
    identical conditions and the between-tier variance is purely the
    compute sizing, not the weather.

    Args:
        config: Baseline mission scenario (the planned course is shared
            by all trials: perturbations never touch the world).
        tiers: Compute ladder, ``(name, platform, mass_kg, power_w)``.
        trials: Monte Carlo trials per tier.
        seed: Perturbation RNG seed (same seed, same study).
        perturbation: Per-axis relative spreads.
    """

    config: MissionConfig
    tiers: Sequence[Tier]
    trials: int = 64
    seed: int = 0
    perturbation: FleetPerturbation = field(
        default_factory=FleetPerturbation)

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ConfigurationError("need at least one tier")
        if self.trials < 1:
            raise ConfigurationError(
                f"trials must be >= 1, got {self.trials}")

    def factors(self) -> np.ndarray:
        """The ``(trials, 4)`` perturbation factor matrix (pure
        function of ``seed``/``trials``/``perturbation``)."""
        widths = np.array(self.perturbation.widths())
        rng = np.random.default_rng(self.seed)
        return rng.uniform(1.0 - widths, 1.0 + widths,
                           size=(self.trials, 4))

    def rollouts(self) -> Sequence[FleetRollout]:
        """The full population, trial-major: every tier flies every
        perturbed scenario.

        A read-only view over :meth:`factors`, not a list: rollout
        ``i`` flies trial ``i // T`` on tier ``i % T``.  Reading a
        trial's rollout builds that trial's perturbed config (once per
        view; its tiers share it) and slices return tuples.
        :func:`run_fleet` reads the view as columns and builds no
        rollout at all.
        """
        return _StudyRollouts(self.config, tuple(self.tiers),
                              self.factors())

    def run(self, *, jobs: int = 1,
            metrics: Optional[MetricsRegistry] = None,
            chunk_size: Optional[int] = None) -> FleetStudyResult:
        """Evaluate the study population and summarize per tier.

        The population goes to :func:`run_fleet` as the
        :meth:`rollouts` view, so it is gathered and priced as columns
        from the factor matrix; the summary reads the result columns.
        The returned ``fleet`` builds rollout and result rows only when
        they are read.

        Args:
            jobs: Process-pool width.  ``jobs > 1`` splits the trials
                into ``min(jobs, trials)`` contiguous shards; shards are
                independent, so results are identical to the serial run.
                The parent resolves the shared course before fan-out and
                ships it with each shard, so no worker plans.
            metrics: Optional registry for the ``fleet.*`` counters.
            chunk_size: Stream the population (or each shard) through a
                fixed-size arena window of at most this many rollouts,
                bounding the peak working set; results are identical.
        """
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}")
        if min(jobs, self.trials) == 1:
            fleet = run_fleet(self.rollouts(), metrics=metrics,
                              chunk_size=chunk_size)
        else:
            fleet = self._run_sharded(jobs, chunk_size, metrics)
        return FleetStudyResult(
            statistics=tuple(self._summarize(fleet)),
            fleet=fleet,
            trials=self.trials,
            seed=self.seed,
        )

    def _run_sharded(self, jobs: int, chunk_size: Optional[int],
                     metrics: Optional[MetricsRegistry]) -> FleetResult:
        """Solve contiguous trial ranges in a process pool.

        Each task carries only its shard spec and the course the parent
        resolved (see :func:`_run_shard`) and comes back as result
        columns; the parent concatenates them in shard order and wraps
        them, with a rollout view over the same factor matrix, as the
        serial run does.  Bit-identical to serial: same factor bytes,
        same gather, same solve.  The parent builds no population of its
        own, so all it does while the workers run is wait.
        """
        factors = self.factors()
        workers = min(jobs, self.trials)
        cuts = [self.trials * w // workers for w in range(workers + 1)]
        tiers = tuple(self.tiers)
        # Workers run without a tracer: span the fan-out from the
        # parent so --trace-out still sees the run.
        tracer = get_tracer()
        with tracer.wall_span("fleet.run", track="fleet") as span:
            with tracer.profile_span("fleet.plan",
                                     track="fleet") as plan_span:
                course, planned = lookup_course(self.config)
                if tracer.enabled:
                    plan_span.args = {"planned": int(planned),
                                      "reused": int(not planned)}
            tasks = [(self.config, tiers, factors[lo:hi], chunk_size,
                      course) for lo, hi in zip(cuts, cuts[1:])]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                shards, priced, fell_back, nbytes = zip(
                    *pool.map(_run_shard, tasks))
            columns = {name: np.concatenate([shard[name]
                                             for shard in shards])
                       for name in _RESULT_COLUMNS}
            fleet = _emit_fleet(_StudyRollouts(self.config, tiers,
                                               factors),
                                columns, sum(priced), sum(fell_back),
                                sum(nbytes))
        _publish(fleet, span, metrics, jobs=jobs)
        return fleet

    def _summarize(self, fleet: FleetResult) -> List[TierStatistics]:
        """Per-tier statistics straight from the result columns.

        Tier ``k``'s rollouts are the strided slice ``[k::T]``; tiers
        sharing a name are pooled, in rollout order, and summarized
        once.  Each name takes two percentile passes (times, energies);
        no row is built.
        """
        columns = fleet.results.columns
        width = len(self.tiers)
        members: Dict[str, List[int]] = {}
        for tier, (name, _platform, _mass, _power) in enumerate(self.tiers):
            members.setdefault(name, []).append(tier)
        by_name = {}
        for name, tiers in members.items():
            rows = (slice(tiers[0], None, width) if len(tiers) == 1 else
                    (np.arange(0, len(fleet), width)[:, None]
                     + tiers).ravel())
            succeeded = columns["succeeded"][rows]
            times = columns["elapsed"][rows]
            energies = columns["energy"][rows]
            time_p50, time_p90, time_p99 = np.percentile(
                times, (50, 90, 99)).tolist()
            energy_p50, energy_p99 = np.percentile(
                energies, (50, 99)).tolist()
            # Reasons in first-occurrence order over the failed rows.
            late = columns["timed_out"][rows][~succeeded]
            counts = {"timeout": int(np.count_nonzero(late))}
            counts["battery"] = len(late) - counts["timeout"]
            order = (("timeout", "battery") if len(late) and late[0]
                     else ("battery", "timeout"))
            by_name[name] = TierStatistics(
                tier=name,
                trials=len(times),
                success_rate=int(np.count_nonzero(succeeded)) / len(times),
                mission_time_p50_s=time_p50,
                mission_time_p90_s=time_p90,
                mission_time_p99_s=time_p99,
                energy_p50_j=energy_p50,
                energy_p99_j=energy_p99,
                failure_counts={reason: counts[reason] for reason in order
                                if counts[reason]},
            )
        return [by_name[name] for name, _platform, _mass, _power
                in self.tiers]
