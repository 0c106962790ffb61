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
   hover power — stays a per-rollout scalar call.

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

**Memory architecture** (PR 7): the solve phase writes every column
through explicit ``out=`` ufunc calls into a
:class:`~repro.engine.arena.BatchArena` when one is supplied — same
operations, same association order, so the equivalence contract is
untouched while steady-state sweeps stop allocating.  ``chunk_size``
streams arbitrarily large populations through a fixed-size arena
window.  ``jobs > 1`` sends each worker only its shard spec (config,
tiers, a slice of the factor matrix) plus the course the parent
resolved, so no worker plans, and takes back plain result columns,
which the parent concatenates and emits once — no row objects cross
the process boundary in either direction.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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

    Attributes:
        rollouts: The population, exactly as submitted.
        results: Per-rollout :class:`MissionResult`, in input order,
            each exactly equal to ``run_mission`` on that rollout.
        batch_priced: Rollouts whose pipeline latency came from the one
            SoA :func:`~repro.hw.batch.batch_estimate` pass.
        scalar_fallback: Rollouts priced through scalar ``estimate``
            (non-SoA-priceable platforms).
    """

    rollouts: Tuple[FleetRollout, ...]
    results: Tuple[MissionResult, ...]
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

#: Result-column order of :func:`_solve_fleet`'s output and the row
#: order :func:`_emit_results` unpacks.
_RESULT_COLUMNS: Tuple[str, ...] = (
    "succeeded", "timed_out", "elapsed", "distance", "energy",
    "mean_speed", "safe_speed", "latency", "compute_power",
    "hover_power", "total_mass", "endurance",
)


def run_fleet(rollouts: Sequence[FleetRollout], *,
              metrics: Optional[MetricsRegistry] = None,
              arena: Optional[BatchArena] = None,
              chunk_size: Optional[int] = None) -> FleetResult:
    """Evaluate a whole rollout population in fused numpy.

    Args:
        rollouts: The population; rollouts may freely share worlds,
            platforms, and frame profiles (sharing is what makes the
            batch block small — platforms and profiles are deduplicated
            by identity before pricing).
        metrics: Optional registry receiving ``fleet.rollouts``,
            ``fleet.batch_hits``, ``fleet.batch_fallbacks``, and (when
            chunked) ``fleet.chunks`` / ``fleet.arena_occupancy_pct``.
        arena: Optional :class:`~repro.engine.arena.BatchArena` the
            solve phase writes its columns into — bit-identical to the
            allocating path; pass the same arena across calls to stop
            reallocating.  Result arrays inside the return value are
            plain Python objects either way; only the engine's interior
            columns live in the arena.
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


def _run_fleet(rollouts: Tuple[FleetRollout, ...],
               arena: Optional[BatchArena] = None) -> FleetResult:
    if not rollouts:
        return FleetResult(rollouts=(), results=(), batch_priced=0,
                           scalar_fallback=0)
    return _emit_fleet(rollouts, *_solve_fleet(rollouts, {}, arena))


def _emit_fleet(rollouts: Tuple[FleetRollout, ...],
                columns: Dict[str, np.ndarray], batch_priced: int,
                scalar_fallback: int, alloc_bytes: int) -> FleetResult:
    """Wrap solved columns and their counts as a :class:`FleetResult`."""
    with get_tracer().profile_span("fleet.emit", track="fleet"):
        results = _emit_results(columns)
    return FleetResult(rollouts=rollouts, results=results,
                       batch_priced=batch_priced,
                       scalar_fallback=scalar_fallback,
                       alloc_bytes=alloc_bytes)


def _solve_fleet(rollouts: Tuple[FleetRollout, ...], memo: Dict,
                 arena: Optional[BatchArena],
                 ) -> Tuple[Dict[str, np.ndarray], int, int, int]:
    """Plan, gather, price, and solve one population into columns.

    ``memo`` is the caller's identity memo of
    :func:`~repro.system.courses.lookup_course`, shared by every window
    of one call so the course store is asked once per distinct world.

    Returns ``(columns, batch_priced, scalar_fallback, alloc_bytes)``
    where ``columns`` maps each :data:`_RESULT_COLUMNS` name to its
    ``(n,)`` array.  With an arena the columns are **borrowed** views —
    valid until the next kernel call on the same arena — so callers
    must emit (or copy, see :func:`_solve_windows`) before re-entering.

    Every solve-phase ufunc writes through ``out=`` in the scalar
    association order; the arena changes where the bytes land, never
    their values (the module docstring's equivalence contract).
    """
    n = len(rollouts)
    ws = Workspace(arena, "fleet.")
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

    # Per-rollout scalar inputs.  hover_power stays a scalar Python call
    # on purpose: numpy's SIMD `x ** 1.5` rounds differently from
    # CPython's pow on a few per mille of inputs, which would break the
    # bit-equality contract; everything downstream vectorizes exactly.
    with tracer.profile_span("fleet.gather", track="fleet"):
        period = ws.out("period", (n,))
        actuation = ws.out("actuation", (n,))
        sensing_range = ws.out("sensing_range", (n,))
        accel = ws.out("accel", (n,))
        max_speed = ws.out("max_speed", (n,))
        dt = ws.out("dt", (n,))
        max_duration = ws.out("max_duration", (n,))
        budget = ws.out("budget", (n,))
        length = ws.out("length", (n,))
        total_mass = ws.out("total_mass", (n,))
        hover_power = ws.out("hover_power", (n,))
        compute_power = ws.out("compute_power", (n,))
        for i, (rollout, course) in enumerate(zip(rollouts, courses)):
            config = rollout.config
            period[i] = 1.0 / config.sensor_rate_hz
            actuation[i] = config.actuation_latency_s
            sensing_range[i] = config.sensing_range_m
            accel[i] = config.uav.max_accel_m_s2
            max_speed[i] = config.uav.max_speed_m_s
            dt[i] = config.time_step_s
            max_duration[i] = config.max_duration_s
            budget[i] = config.battery.usable_energy_j
            length[i] = course.total_length_m
            mass = (config.uav.frame_mass_kg + config.battery.mass_kg
                    + rollout.compute_mass_kg)
            total_mass[i] = mass
            hover_power[i] = config.uav.hover_power_w(mass)
            compute_power[i] = rollout.compute_power_w

    # Frame-pipeline compute latency: one SoA pass over the population's
    # deduplicated (platform, profile) block; scalar estimates only for
    # platforms the kernel cannot reproduce.
    with tracer.profile_span("fleet.price", track="fleet"):
        compute_latency = ws.out("compute_latency", (n,))
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
            # fresh fancy-index arrays every chunk (the last PR 7
            # per-chunk allocation on this path).
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

    # Pipeline latency and safe speed — broadcast forms of
    # pipeline_latency_s and UavPhysics.safe_speed_m_s, same
    # association order (see the module docstring's contract).
    with tracer.profile_span("fleet.solve", track="fleet"):
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
    # and between serial and sharded runs.
    soa_arrays = (
        period, actuation, sensing_range, accel, max_speed, dt,
        max_duration, budget, length, total_mass, hover_power,
        compute_power, compute_latency, staleness, latency, raw_speed,
        safe_speed, total_power, endurance, step_travel, step_energy,
        n_timeout, n_complete, n_battery, steps, timed_out, succeeded,
        elapsed, energy, distance, mean_speed,
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
        "hover_power": hover_power, "total_mass": total_mass,
        "endurance": endurance,
    }
    return columns, len(priceable), len(fallback), alloc_bytes


def _emit_results(columns: Dict[str, np.ndarray]
                  ) -> Tuple[MissionResult, ...]:
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
    return tuple(results)


def _solve_windows(rollouts: Tuple[FleetRollout, ...], chunk_size: int,
                   memo: Dict, arena: BatchArena,
                   ) -> Tuple[Dict[str, np.ndarray], int, int, int]:
    """:func:`_solve_fleet` through ``chunk_size``-rollout arena windows.

    Each window's borrowed arena columns are copied into owned
    ``(n,)`` result columns before the next window reuses the arena,
    so the return value has :func:`_solve_fleet`'s shape but outlives
    the arena.  Counts and byte totals are summed over the windows.
    """
    n = len(rollouts)
    out: Dict[str, np.ndarray] = {}
    batch_priced = scalar_fallback = alloc_bytes = 0
    for lo in range(0, n, chunk_size):
        columns, priced, fell_back, nbytes = _solve_fleet(
            rollouts[lo:lo + chunk_size], memo, arena)
        for name in _RESULT_COLUMNS:
            column = columns[name]
            if name not in out:
                out[name] = np.empty(n, dtype=column.dtype)
            out[name][lo:lo + len(column)] = column
        batch_priced += priced
        scalar_fallback += fell_back
        alloc_bytes += nbytes
    return out, batch_priced, scalar_fallback, alloc_bytes


def _run_shard(task: Tuple[MissionConfig, Tuple[Tier, ...], np.ndarray,
                           Optional[int], Course],
               ) -> Tuple[Dict[str, np.ndarray], int, int, int]:
    """Process-pool entry point for one contiguous trial range.

    ``task`` is ``(config, tiers, factors, chunk_size, course)`` — the
    shard's *spec*, with ``factors`` the shard's rows of the study's
    factor matrix and ``course`` the course the parent resolved for
    ``config``.  The worker pins that course in its memo (perturbed
    configs share ``config``'s world and endpoints, so it never plans),
    rebuilds its rollouts exactly as the parent's
    :meth:`FleetStudy.rollouts` would, solves them with a private arena,
    and returns plain result columns plus counts; no row objects cross
    the process boundary in either direction.
    """
    config, tiers, factors, chunk_size, course = task
    memo: Dict = {}
    pin_course(memo, config, course)
    shard = tuple(_perturbed_population(config, tiers, factors,
                                        0, len(factors)))
    return _solve_windows(shard, chunk_size or len(shard), memo,
                          BatchArena())


# -- Monte Carlo layer -------------------------------------------------

def _perturbed_population(config: MissionConfig,
                          tiers: Sequence[Tier],
                          factors: np.ndarray,
                          trial_lo: int, trial_hi: int
                          ) -> List[FleetRollout]:
    """Rollouts for trials ``[trial_lo, trial_hi)``, trial-major.

    The single construction path for study populations — the parent's
    :meth:`FleetStudy.rollouts` and the pool's shard workers both call
    it, so a shard rebuilt from its slice of the factor matrix is
    bit-identical to the parent's slice of the full population.
    """
    population: List[FleetRollout] = []
    for trial in range(trial_lo, trial_hi):
        cap, mass, rate, scale = factors[trial]
        perturbed = replace(
            config,
            battery=replace(config.battery,
                            capacity_wh=config.battery.capacity_wh
                            * cap),
            sensor_rate_hz=config.sensor_rate_hz * rate,
            frame_profile=config.frame_profile.scaled(scale),
        )
        for name, platform, module_mass, power in tiers:
            population.append(FleetRollout(
                name=name,
                config=perturbed,
                platform=platform,
                compute_mass_kg=module_mass * mass,
                compute_power_w=power,
            ))
    return population

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

    def rollouts(self) -> List[FleetRollout]:
        """The full population, trial-major: every tier flies every
        perturbed scenario."""
        return _perturbed_population(self.config, self.tiers,
                                     self.factors(), 0, self.trials)

    def run(self, *, jobs: int = 1,
            metrics: Optional[MetricsRegistry] = None,
            chunk_size: Optional[int] = None) -> FleetStudyResult:
        """Evaluate the study population and summarize per tier.

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
        columns; the parent concatenates them in shard order and emits
        once.  Bit-identical to serial: same factor bytes, same solve,
        same emit.  The tasks are submitted before the parent builds its
        own copy of the population (which :class:`FleetResult` carries),
        so the workers start from a small parent heap and that build
        overlaps their solves.
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
                pending = pool.map(_run_shard, tasks)
                population = self.rollouts()
                shards, priced, fell_back, nbytes = zip(*pending)
            columns = {name: np.concatenate([shard[name]
                                             for shard in shards])
                       for name in _RESULT_COLUMNS}
            fleet = _emit_fleet(tuple(population), columns, sum(priced),
                                sum(fell_back), sum(nbytes))
        _publish(fleet, span, metrics, jobs=jobs)
        return fleet

    def _summarize(self, fleet: FleetResult) -> List[TierStatistics]:
        by_tier: Dict[str, List[MissionResult]] = {}
        for rollout, result in zip(fleet.rollouts, fleet.results):
            by_tier.setdefault(rollout.name, []).append(result)
        statistics = []
        for name, _platform, _mass, _power in self.tiers:
            results = by_tier.get(name, [])
            if not results:
                continue
            times = np.array([r.mission_time_s for r in results])
            energies = np.array([r.energy_j for r in results])
            successes = sum(1 for r in results if r.success)
            failures: Dict[str, int] = {}
            for r in results:
                if not r.success:
                    failures[r.failure_reason] = failures.get(
                        r.failure_reason, 0) + 1
            statistics.append(TierStatistics(
                tier=name,
                trials=len(results),
                success_rate=successes / len(results),
                mission_time_p50_s=float(np.percentile(times, 50)),
                mission_time_p90_s=float(np.percentile(times, 90)),
                mission_time_p99_s=float(np.percentile(times, 99)),
                energy_p50_j=float(np.percentile(energies, 50)),
                energy_p99_j=float(np.percentile(energies, 99)),
                failure_counts=failures,
            ))
        return statistics
