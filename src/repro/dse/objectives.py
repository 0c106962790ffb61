"""Ready-made, picklable DSE objectives over the benchmark suite.

The CLI's ``repro dse`` verb (and the engine benchmarks) need a
self-contained co-design problem: a discrete space of platform knobs
and an oracle that prices a candidate platform against the standard
autonomy suite.  Everything here is defined at module level so that
:class:`~repro.engine.evaluator.Evaluator` can ship the objective to a
process pool (closures and lambdas cannot cross the pickle boundary).

The knobs mirror the §2.4 sizing question — how much compute, how much
on-chip memory, how much off-chip bandwidth, at what standing power —
and the oracle scores real-time slack and energy across the whole
suite, so single-kernel widgets cannot win (§2.3).

The objectives are **batch-capable** (:class:`SuiteObjective` exposes
``evaluate_batch``): an Evaluator prices an entire ask() population in
one structure-of-arrays roofline pass (:mod:`repro.hw.batch`) instead
of candidate-by-candidate Python, with values bit-identical to the
scalar ``__call__`` path.  :func:`encode_codesign` is the
``DesignSpace``-population → :class:`~repro.hw.batch.PlatformSoA`
encoder that makes this possible.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.workload import Workload
from repro.dse.space import Config, DesignSpace, Parameter
from repro.engine.arena import BatchArena
from repro.engine.protocol import FidelityTier
from repro.errors import SearchError
from repro.hw.batch import (LazyNames, PlatformSoA, ProfileSoA,
                             batch_estimate)
from repro.hw.platform import AnalyticalPlatform, PlatformConfig
from repro.spec.registry import OBJECTIVES, SPACES

_SUITE: "List[Workload] | None" = None

#: Per-process scratch arena shared by the batch objectives: every
#: ``evaluate_batch`` call (every chunk of a chunked evaluation, every
#: DSE generation) reuses the same buffers, so steady-state pricing
#: allocates nothing on the hot path.  Results are bit-identical to the
#: allocating path — the arena only changes where outputs live.
_ARENA: "BatchArena | None" = None


def _arena() -> BatchArena:
    global _ARENA
    if _ARENA is None:
        _ARENA = BatchArena()
    return _ARENA


def _suite() -> List[Workload]:
    """The standard suite, built once per process (pool workers
    included)."""
    global _SUITE
    if _SUITE is None:
        from repro.benchmarksuite.workloads import standard_suite
        _SUITE = standard_suite()
    return _SUITE


#: Per-workload batch-pricing structure: (workload, stage names in
#: topological order, column slice into the suite-wide ProfileSoA).
_SuitePlan = List[Tuple[Workload, Tuple[str, ...], slice]]
_BATCH_SUITE: "Tuple[ProfileSoA, _SuitePlan] | None" = None


def _batch_suite() -> Tuple[ProfileSoA, _SuitePlan]:
    """The whole suite's stage profiles as one SoA block, plus the
    per-workload plan to slice it back apart (built once per
    process)."""
    global _BATCH_SUITE
    if _BATCH_SUITE is None:
        profiles = []
        plan: _SuitePlan = []
        for workload in _suite():
            stages = workload.graph.stages
            start = len(profiles)
            profiles.extend(stage.profile for stage in stages)
            plan.append((workload,
                         tuple(stage.name for stage in stages),
                         slice(start, len(profiles))))
        _BATCH_SUITE = (ProfileSoA.from_profiles(profiles), plan)
    return _BATCH_SUITE


@SPACES.register("codesign")
def codesign_space() -> DesignSpace:
    """The demo co-design space: 4 platform knobs, 256 designs."""
    return DesignSpace([
        Parameter("peak_gflops", (50.0, 200.0, 800.0, 3200.0)),
        Parameter("onchip_kb", (128.0, 512.0, 2048.0, 8192.0)),
        Parameter("offchip_gbs", (10.0, 25.0, 60.0, 150.0)),
        Parameter("static_power_w", (1.0, 3.0, 8.0, 20.0)),
    ])


def _geometric_knob(lo: float, hi: float, points: int
                    ) -> Tuple[float, ...]:
    """A geometric grid of ``points`` values from ``lo`` to ``hi``,
    rounded for stable platform names."""
    ratio = (hi / lo) ** (1.0 / (points - 1))
    return tuple(round(lo * ratio ** i, 3) for i in range(points))


@SPACES.register("codesign_xl")
def codesign_space_xl() -> DesignSpace:
    """The million-point co-design space: the same four knobs as
    ``codesign``, refined to geometric grids spanning the same ranges
    (64 x 32 x 32 x 16 = 1,048,576 designs) — the scale the
    multi-fidelity funnel exists for."""
    return DesignSpace([
        Parameter("peak_gflops", _geometric_knob(50.0, 3200.0, 64)),
        Parameter("onchip_kb", _geometric_knob(128.0, 8192.0, 32)),
        Parameter("offchip_gbs", _geometric_knob(10.0, 150.0, 32)),
        Parameter("static_power_w", _geometric_knob(1.0, 20.0, 16)),
    ])


#: Shared by :func:`build_platform` and :func:`encode_codesign`, so
#: scalar and SoA lowerings cannot disagree about platform names.
_CODESIGN_NAME = ("codesign-{peak_gflops:g}g-{onchip_kb:g}kb"
                  "-{offchip_gbs:g}gbs-{static_power_w:g}w")


def build_platform(config: Config) -> AnalyticalPlatform:
    """Lower a co-design point to a roofline platform.

    The name encodes the knob values, so two platforms built from the
    same config fingerprint identically across processes.
    """
    return AnalyticalPlatform(PlatformConfig(
        name=_CODESIGN_NAME.format(**config),
        peak_flops=config["peak_gflops"] * 1e9,
        scalar_flops=2e9,
        onchip_bytes=config["onchip_kb"] * 1024.0,
        onchip_bw=10.0 * config["offchip_gbs"] * 1e9,
        offchip_bw=config["offchip_gbs"] * 1e9,
        static_power_w=config["static_power_w"],
        device_class="asic",
    ))


#: The four co-design knobs, in :func:`codesign_space` order.
_KNOBS = ("peak_gflops", "onchip_kb", "offchip_gbs", "static_power_w")


def _as_list(configs: Sequence[Config]) -> List[Config]:
    """``configs`` as a list, keeping a
    :class:`~repro.dse.space.Population` (and its index view)."""
    return configs if isinstance(configs, list) else list(configs)


def _knob_columns(configs: List[Config]) -> Dict[str, np.ndarray]:
    """Each knob as an array, read once: gathered from a
    :class:`~repro.dse.space.Population`'s digits, else from the
    dicts (the same ``np.array`` either way)."""
    column = getattr(configs, "column", None)
    if column is not None:
        return {knob: column(knob) for knob in _KNOBS}
    return {knob: np.array([c[knob] for c in configs]) for knob in _KNOBS}


def encode_codesign(configs: Sequence[Config]) -> PlatformSoA:
    """SoA-encode a co-design population: the :func:`build_platform`
    lowering, transposed into columns for :func:`batch_estimate`.

    Columns are built directly from the knob arrays with the same
    elementwise arithmetic as ``build_platform`` (IEEE-identical per
    element), so the encode is bit-equal to transposing per-candidate
    platforms while skipping the per-candidate object construction
    that used to dominate screening cost.  The non-knob columns come
    from one template platform, which also runs the scalar lowering's
    validation once.  Platform names are formatted only when first
    read (:class:`~repro.hw.batch.LazyNames`); screens never read
    them.  ``tests/dse/test_batch_objectives.py`` pins equality
    against the object-by-object reference encode.
    """
    configs = _as_list(configs)
    return _encode_codesign(configs, _knob_columns(configs))


def _encode_codesign(configs: List[Config],
                     knobs: Dict[str, np.ndarray]) -> PlatformSoA:
    """:func:`encode_codesign` from already-read knob columns."""
    if not configs:
        return PlatformSoA.from_configs([])
    template = build_platform(configs[0]).config
    n = len(configs)
    peak_gflops = knobs["peak_gflops"]
    offchip_gbs = knobs["offchip_gbs"]
    peak_flops = peak_gflops * 1e9
    snapshot = tuple(configs)
    return PlatformSoA(
        names=LazyNames(n, lambda: tuple(
            map(_CODESIGN_NAME.format_map, snapshot))),
        scalar_flops=np.full(n, template.scalar_flops),
        peak_flops=peak_flops,
        # peak_int_ops is left defaulted, so int throughput resolves
        # to peak_flops — knob-dependent, not a template constant.
        int_throughput=peak_gflops * 1e9,
        onchip_bytes=knobs["onchip_kb"] * 1024.0,
        onchip_bw=(10.0 * offchip_gbs) * 1e9,
        offchip_bw=offchip_gbs * 1e9,
        launch_overhead_s=np.full(n, template.launch_overhead_s),
        energy_per_flop=np.full(n, template.energy_per_flop),
        int_energy=np.full(n, template.int_energy),
        energy_per_byte_onchip=np.full(
            n, template.energy_per_byte_onchip),
        energy_per_byte_offchip=np.full(
            n, template.energy_per_byte_offchip),
        static_power_w=knobs["static_power_w"],
        area_mm2=np.full(n, template.area_mm2),
        lockstep=np.full(n, template.lockstep, dtype=bool),
    )


def _price(config: Config) -> Dict[str, float]:
    """Suite-wide latency-slack and energy totals for one design."""
    platform = build_platform(config)
    slack = 0.0
    energy = 0.0
    for workload in _suite():
        stages = workload.graph.stages
        estimates = {s.name: platform.estimate(s.profile)
                     for s in stages}
        latency, _ = workload.graph.critical_path(
            {name: est.latency_s for name, est in estimates.items()})
        slack += latency / workload.deadline_s()
        energy += sum(est.energy_j for est in estimates.values())
    return {"slack": slack, "energy_j": energy}


class SuiteObjective:
    """A suite-priced co-design objective with a vectorized batch path.

    Instances are plain callables (``config -> float``, so every
    existing entry point keeps working and process pools can pickle
    them) that additionally implement the
    :class:`~repro.engine.protocol.BatchObjective` protocol:
    ``evaluate_batch(configs)`` SoA-encodes the whole population
    (:func:`encode_codesign`), prices every (candidate, suite-stage)
    pair in one fused roofline pass, and reduces per workload with the
    same accumulation order as the scalar path — so batch values are
    bit-identical to calling the objective per candidate.

    Args:
        kind: ``"slack"`` (suite latency/deadline total), ``"energy"``
            (suite energy total), or ``"objective"`` (the combined
            co-design score).
    """

    KINDS = ("slack", "energy", "objective")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise SearchError(
                f"unknown suite objective kind {kind!r};"
                f" expected one of {self.KINDS}")
        self.kind = kind

    def __repr__(self) -> str:
        return f"SuiteObjective({self.kind!r})"

    def __reduce__(self):
        # Pickle by reference, like a module-level function would: pool
        # workers (and registry round-trips) resolve to this module's
        # singleton for the kind rather than rebuilding state.
        return (_suite_objective_singleton, (self.kind,))

    # -- scalar path --------------------------------------------------

    def __call__(self, config: Config) -> float:
        if self.kind == "slack":
            return _price(config)["slack"]
        if self.kind == "energy":
            return _price(config)["energy_j"]
        platform = build_platform(config)
        total = 0.0
        for workload in _suite():
            stages = workload.graph.stages
            estimates = {s.name: platform.estimate(s.profile)
                         for s in stages}
            latency, _ = workload.graph.critical_path(
                {name: est.latency_s
                 for name, est in estimates.items()})
            energy = sum(est.energy_j for est in estimates.values())
            deadline = workload.deadline_s()
            total += latency / deadline + energy / (10.0 * deadline)
        return total

    # -- vectorized batch path ----------------------------------------

    def evaluate_batch(self, configs: Sequence[Config]) -> List[float]:
        """Price a whole population in one SoA roofline pass.

        Reduction discipline for bit-identity with the scalar path:
        per-workload stage energies are accumulated column-by-column in
        topological order (numpy's pairwise ``sum`` would round
        differently), and workload totals accumulate in suite order —
        exactly the scalar loops, elementwise over the candidate axis.
        """
        configs = _as_list(configs)
        if not configs:
            return []
        soa = encode_codesign(configs)
        profiles, plan = _batch_suite()
        cost = batch_estimate(soa, profiles, arena=_arena())
        totals = np.zeros(len(configs))
        for workload, stage_names, columns in plan:
            block_latency = cost.latency_s[:, columns]
            block_energy = cost.energy_j[:, columns]
            latency = workload.graph.critical_path_batch(
                {name: block_latency[:, j]
                 for j, name in enumerate(stage_names)})
            energy = np.zeros(len(configs))
            for j in range(len(stage_names)):
                energy = energy + block_energy[:, j]
            deadline = workload.deadline_s()
            if self.kind == "slack":
                totals = totals + latency / deadline
            elif self.kind == "energy":
                totals = totals + energy
            else:
                totals = totals + (latency / deadline
                                   + energy / (10.0 * deadline))
        return [float(value) for value in totals]

    # -- fidelity ladder ----------------------------------------------

    def roofline_screen_batch(self, configs: Sequence[Config]
                              ) -> List[float]:
        """Tier-0 screen: the same roofline pricing, with the
        per-workload critical-path DP replaced by a serial-chain sum.

        Summing stage latencies upper-bounds (and strongly rank-
        correlates with) the DAG critical path at a fraction of the
        cost — the per-workload graph reductions and dict plumbing
        vanish, leaving one fused SoA pass plus a fixed column loop.
        Elementwise over candidates, fixed accumulation order: chunk-
        invariant and bit-stable, like every batch path here, but its
        *values* deliberately differ from full fidelity — it is a
        screen, not a vectorization.
        """
        configs = _as_list(configs)
        if not configs:
            return []
        soa = encode_codesign(configs)
        profiles, plan = _batch_suite()
        cost = batch_estimate(soa, profiles, arena=_arena())
        totals = np.zeros(len(configs))
        for workload, stage_names, columns in plan:
            deadline = workload.deadline_s()
            for j in range(columns.start, columns.stop):
                if self.kind == "slack":
                    totals = totals + cost.latency_s[:, j] / deadline
                elif self.kind == "energy":
                    totals = totals + cost.energy_j[:, j]
                else:
                    totals = totals + (
                        cost.latency_s[:, j] / deadline
                        + cost.energy_j[:, j] / (10.0 * deadline))
        return [float(value) for value in totals]

    def roofline_screen(self, config: Config) -> float:
        """Scalar tier-0 screen (a batch of one, so the scalar and
        batch screens agree bit-for-bit)."""
        return self.roofline_screen_batch([config])[0]

    def fidelity_tiers(self) -> Tuple[FidelityTier, ...]:
        """Two rungs: the roofline-only screen, then the full suite
        objective (the top tier *is* ``self`` — the tier-equivalence
        contract of :class:`~repro.engine.protocol.TieredObjective`).
        """
        return (
            FidelityTier(name="roofline",
                         evaluate=self.roofline_screen,
                         evaluate_batch=self.roofline_screen_batch,
                         cost_hint=1.0),
            FidelityTier(name="suite",
                         evaluate=self,
                         evaluate_batch=self.evaluate_batch,
                         cost_hint=2.0),
        )


def _suite_objective_singleton(kind: str) -> "SuiteObjective":
    """Pickle hook for :class:`SuiteObjective` (see ``__reduce__``)."""
    return _SINGLETONS[kind]


# --------------------------------------------------------------------------
# Mission-in-the-loop objective (§2.4: score the *mission*, not the chip).
# --------------------------------------------------------------------------

#: Lazily-built mission setting shared by every candidate: the config
#: and its course from the course store (one per process, pool workers
#: included).
_MISSION = None


def mission_setting(*, extent: float = 60.0, n_obstacles: int = 24,
                    laps: int = 2, time_step_s: float = 0.05,
                    seed: int = 5):
    """Build a patrol scenario for :class:`MissionObjective`.

    Returns the ``(config, course)`` pair a parametric
    :class:`MissionObjective` flies: the mission config and its course,
    resolved here through the process-wide course store
    (:func:`repro.system.courses.ensure_course`), so equal settings
    built twice plan once.  Both the scalar path and the fleet tier
    fly this course; neither asks the store again.

    The defaults reproduce the shared scenario of the module-level
    :data:`mission_objective`.  Heavier settings — a larger world, more
    laps, a finer integration step — raise the cost of one full-DES
    evaluation without touching the tier-0 pricing proxy (which is
    closed-form and timestep-free), widening the fidelity gap the
    screening funnel exploits; the ``funnel_dse`` benchmark and the S7
    experiment sweep exactly that axis.
    """
    from repro.kernels.planning.occupancy import CircleWorld
    from repro.system.courses import ensure_course
    from repro.system.mission import MissionConfig

    world = CircleWorld.random(
        dim=2, n_obstacles=n_obstacles, extent=extent,
        radius_range=(1.0, 2.5), seed=seed, keep_corners_free=3.0)
    config = MissionConfig(
        world=world,
        start=np.array([1.0, 1.0]),
        goal=np.array([extent - 2.0, extent - 2.0]),
        laps=laps,
        time_step_s=time_step_s,
    )
    return config, ensure_course(config)


def _mission_setting():
    """The fixed closed-loop scenario shared-mission candidates fly.

    A compact patrol world (60 m, two laps) keeps a single scalar
    evaluation cheap enough for search budgets while still exercising
    the latency-speed-battery couplings; the course comes from the
    course store.
    """
    global _MISSION
    if _MISSION is None:
        _MISSION = mission_setting()
    return _MISSION


def codesign_payload(config: Config) -> Tuple[float, float]:
    """The physical module a co-design point implies, as
    ``(mass_kg, power_w)``.

    Compute does not fly for free: mass scales with the die/board/
    cooling that peak throughput requires, and flight power adds a
    dynamic term on top of the standing power knob.  The slopes land
    the 4-knob space across the same ~0.1-0.7 kg / ~5-70 W span as the
    catalog's embedded tiers.
    """
    mass_kg = 0.05 + 2.0e-4 * config["peak_gflops"]
    power_w = config["static_power_w"] + 0.015 * config["peak_gflops"]
    return mass_kg, power_w


def _mission_score(result, budget_j: float) -> float:
    """Lower-is-better mission score from one :class:`MissionResult`.

    Failures are disqualifying (a flat +10 dominates every feasible
    score); feasible designs trade mission time (normalized by the
    design's own endurance) against battery draw (normalized by the
    usable budget) — both dimensionless, both in (0, 1] for sane
    designs, exactly the §2.4 "enough compute but not more" shape.
    """
    penalty = 0.0 if result.success else 10.0
    return (penalty + result.mission_time_s / result.endurance_s
            + result.energy_j / budget_j)


class MissionObjective:
    """Closed-loop mission objective with a vectorized batch path.

    The scalar path lowers a candidate to a platform + payload
    (:func:`build_platform`, :func:`codesign_payload`) and flies the
    shared scenario through
    :func:`~repro.system.mission.run_mission`; ``evaluate_batch``
    flies the whole population through
    :func:`~repro.system.fleet.run_fleet` instead, one tier per
    candidate.  Both paths fly the course the setting holds, so an
    in-place world edit cannot make them diverge.  The fleet engine's
    results are exactly equal to the scalar simulator's, and the score
    is a per-result Python reduction of those fields, so batch values
    are bit-identical to calling the objective per candidate — the
    same contract :class:`SuiteObjective` keeps.

    Args:
        setting: A ``(config, course)`` pair from
            :func:`mission_setting`, giving this instance its own
            scenario.  ``None`` (the default, and the module-level
            :data:`mission_objective` singleton) flies the shared
            scenario.  Only the default instance pickles to the
            singleton; parametric instances use standard pickling, so
            keep them out of process pools whose workers rebuild
            objectives by name.
    """

    def __init__(self, setting=None):
        self._setting_override = setting
        self._frame_soa_cache = None

    def __repr__(self) -> str:
        if self._setting_override is None:
            return "MissionObjective()"
        mission = self._setting_override[0]
        return (f"MissionObjective(extent={float(mission.world.upper[0])!r},"
                f" laps={mission.laps!r},"
                f" time_step_s={mission.time_step_s!r})")

    def __reduce__(self):
        if self._setting_override is None:
            return (_mission_objective_singleton, ())
        return (MissionObjective, (self._setting_override,))

    def _setting(self):
        if self._setting_override is None:
            return _mission_setting()
        return self._setting_override

    def _frame_soa(self) -> ProfileSoA:
        if self._setting_override is None:
            return _frame_profile_soa()
        if self._frame_soa_cache is None:
            self._frame_soa_cache = ProfileSoA.from_profiles(
                [self._setting_override[0].frame_profile])
        return self._frame_soa_cache

    def __call__(self, config: Config) -> float:
        from repro.system.mission import run_mission

        mission, course = self._setting()
        mass_kg, power_w = codesign_payload(config)
        result = run_mission(mission, build_platform(config), mass_kg,
                             power_w, course=course)
        return _mission_score(result, mission.battery.usable_energy_j)

    def evaluate_batch(self, configs: Sequence[Config]) -> List[float]:
        from repro.system.fleet import _Population, run_fleet

        configs = list(configs)
        if not configs:
            return []
        mission, course = self._setting()
        tiers = []
        for config in configs:
            mass_kg, power_w = codesign_payload(config)
            tiers.append(("candidate", build_platform(config), mass_kg,
                          power_w))
        fleet = run_fleet(_Population((mission,), tiers, len(tiers), 1,
                                      course=course), arena=_arena())
        budget_j = mission.battery.usable_energy_j
        return [_mission_score(result, budget_j)
                for result in fleet.results]

    # -- fidelity ladder ----------------------------------------------

    def pricing_screen_batch(self, configs: Sequence[Config]
                             ) -> List[float]:
        """Tier-0 screen: continuous-time mission proxy from one
        batch-priced frame profile.

        Prices the per-frame pipeline for the whole population in one
        SoA pass, derives the latency-limited safe speed and hover
        power in closed form, and scores a *continuous* (no-timestep,
        no-course-following) flight of the patrol course: the
        latency → speed → battery couplings survive, the DES loop's
        quantization and mid-course failure accounting do not.
        Elementwise and deterministic (``t*sqrt(t)`` instead of
        ``t**1.5`` keeps every element's rounding identical at any
        batch size), so chunking cannot change a gate decision.
        """
        from repro.system.robot import AIR_DENSITY, GRAVITY

        configs = _as_list(configs)
        if not configs:
            return []
        mission, course = self._setting()
        knobs = _knob_columns(configs)
        cost = batch_estimate(_encode_codesign(configs, knobs),
                              self._frame_soa(), arena=_arena())
        compute = cost.latency_s[:, 0]
        period = 1.0 / mission.sensor_rate_hz
        staleness = np.maximum(compute - period, 0.0)
        latency = (0.5 * period + compute + staleness
                   + mission.actuation_latency_s)
        accel = mission.uav.max_accel_m_s2
        raw_speed = accel * (np.sqrt(
            latency * latency
            + 2.0 * mission.sensing_range_m / accel) - latency)
        safe_speed = np.minimum(raw_speed, mission.uav.max_speed_m_s)
        # codesign_payload, elementwise (same op order per element).
        gflops = knobs["peak_gflops"]
        payload_mass = 0.05 + 2.0e-4 * gflops
        payload_power = knobs["static_power_w"] + 0.015 * gflops
        total_mass = (mission.uav.frame_mass_kg
                      + mission.battery.mass_kg + payload_mass)
        thrust = total_mass * GRAVITY
        hover = thrust * np.sqrt(thrust) / np.sqrt(
            2.0 * AIR_DENSITY * mission.uav.rotor_disk_area_m2
        ) / mission.uav.figure_of_merit + mission.uav.avionics_power_w
        power = hover + payload_power
        flight_time = course.total_length_m / safe_speed
        energy = flight_time * power
        budget_j = mission.battery.usable_energy_j
        endurance = budget_j / power
        penalty = np.where(energy > budget_j, 10.0, 0.0)
        score = penalty + flight_time / endurance + energy / budget_j
        return [float(value) for value in score]

    def pricing_screen(self, config: Config) -> float:
        """Scalar tier-0 screen (a batch of one, so the scalar and
        batch screens agree bit-for-bit)."""
        return self.pricing_screen_batch([config])[0]

    def fidelity_tiers(self) -> Tuple[FidelityTier, ...]:
        """Three rungs: batch pricing proxy → closed-form fleet rollout
        → full DES mission.

        The "fleet" tier computes values bit-identical to the top tier
        (the fleet engine's exact-equality contract) but caches under
        its own namespace; only the "mission" top tier — ``self``, the
        tier-equivalence contract — writes full-fidelity cache entries,
        and it is deliberately scalar-only so funnel benchmarks compare
        against the honest per-candidate DES cost.
        """
        return (
            FidelityTier(name="pricing",
                         evaluate=self.pricing_screen,
                         evaluate_batch=self.pricing_screen_batch,
                         cost_hint=1.0),
            FidelityTier(name="fleet",
                         evaluate=self,
                         evaluate_batch=self.evaluate_batch,
                         cost_hint=1.5),
            FidelityTier(name="mission",
                         evaluate=self,
                         evaluate_batch=None,
                         cost_hint=80.0),
        )


#: One-column ProfileSoA of the shared mission's frame profile (built
#: once per process; feeds the tier-0 pricing screen).
_FRAME_SOA = None


def _frame_profile_soa() -> ProfileSoA:
    global _FRAME_SOA
    if _FRAME_SOA is None:
        mission, _ = _mission_setting()
        _FRAME_SOA = ProfileSoA.from_profiles([mission.frame_profile])
    return _FRAME_SOA


def _mission_objective_singleton() -> "MissionObjective":
    """Pickle hook for :class:`MissionObjective` (see ``__reduce__``)."""
    return mission_objective


mission_objective = MissionObjective()
mission_objective.__doc__ = (
    "Closed-loop mission score (lower is better): +10 per failure,"
    " plus mission time over the design's endurance, plus energy over"
    " the usable battery budget — computed by flying the shared patrol"
    " scenario with the candidate platform installed.")
OBJECTIVES.register("mission_objective")(mission_objective)


suite_latency = SuiteObjective("slack")
suite_latency.__doc__ = (
    "Sum over the suite of critical-path latency / deadline (values"
    " above ``len(suite)`` mean deadlines are being missed on"
    " average).")
OBJECTIVES.register("suite_latency")(suite_latency)

suite_energy = SuiteObjective("energy")
suite_energy.__doc__ = (
    "Total dynamic + static energy (J) for one activation of every"
    " suite workload.")
OBJECTIVES.register("suite_energy")(suite_energy)

suite_objective = SuiteObjective("objective")
suite_objective.__doc__ = (
    "Single-objective co-design score (lower is better): real-time"
    " shortfall plus energy normalized against a 10 W budget over each"
    " workload's deadline — both terms dimensionless, so the trade-off"
    " is explicit rather than unit-accidental.")
OBJECTIVES.register("suite_objective")(suite_objective)

_SINGLETONS = {"slack": suite_latency, "energy": suite_energy,
               "objective": suite_objective}
