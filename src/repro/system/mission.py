"""Closed-loop UAV missions: compute-in-the-loop flight simulation.

The §2.4 experiment, runnable: a quadrotor flies an obstacle course; its
perception-planning-control pipeline runs on a candidate compute tier
whose *latency* bounds safe speed (reaction distance) and whose *mass and
power* drain the battery.  Under-provisioned compute crawls and the
battery dies mid-course; over-provisioned compute flies fast but hauls a
brick — the sweet spot is in the middle, exactly as Krishnan et al. found.

The simulation is time-stepped closed-loop: the vehicle follows a grid-
planned path through a :class:`~repro.kernels.planning.CircleWorld`, the
per-frame pipeline profile is priced on the tier's platform model each
step, and the battery integrates hover + compute power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.profile import WorkloadProfile
from repro.errors import ConfigurationError, SimulationError
from repro.hw.platform import Platform
from repro.kernels.planning.astar import GridPlanner
from repro.kernels.planning.occupancy import CircleWorld, OccupancyGrid
from repro.kernels.vision.features import harris_profile
from repro.kernels.planning.collision import collision_profile
from repro.kernels.control.lqr import lqr_profile
from repro.system.robot import BatteryModel, UavPhysics


def default_frame_profile(scale: float = 1.0) -> WorkloadProfile:
    """Per-frame perception + planning + control workload.

    A DNN-class perception backbone (one ~1 GFLOP GEMM, the im2col view
    of a small detection network), Harris corners on a VGA image, a batch
    of collision checks for local replanning, and a control solve —
    merged into one per-frame profile.  ``scale`` multiplies the workload
    (heavier autonomy stacks).

    The merged profile is forced to a very high parallel fraction: on a
    deployed SoC the residual serial work (NMS, bookkeeping) runs on the
    host cores, not on the accelerator's anemic scalar path.
    """
    if scale <= 0:
        raise ConfigurationError(f"scale must be > 0, got {scale}")
    from repro.kernels.linalg import gemm_profile

    backbone = gemm_profile(256, 4096, 512, name="frame-dnn")
    perception = harris_profile(480, name="frame-perception")
    planning = collision_profile(n_checks=2000, n_obstacles=50,
                                 vectorized=True, name="frame-planning")
    control = lqr_profile(12, 4, riccati_iterations=30,
                          name="frame-control")
    merged = (backbone.combined(perception).combined(planning)
              .combined(control, name="uav-frame"))
    merged = replace(merged, name="uav-frame",
                     parallel_fraction=0.9995)
    return merged.scaled(scale)


@dataclass
class MissionConfig:
    """Mission scenario description.

    Attributes:
        world: 2-D obstacle world to traverse.
        start, goal: Endpoints (must be free).
        uav: Airframe physics.
        battery: Battery pack.
        sensor_rate_hz: Camera rate (adds half a period of sampling
            latency plus a full period when compute is the bottleneck).
        sensing_range_m: Perception horizon for safe-speed computation.
        frame_profile: Per-frame compute workload.
        actuation_latency_s: Motor/ESC response time.
        robot_radius_m: Inflation radius for planning.
        laps: One-way course traversals (odd = end at goal, even = end
            back at start); >1 models patrol/coverage missions where
            endurance matters.
        time_step_s: Integration step.
        max_duration_s: Hard simulation cutoff.
    """

    world: CircleWorld
    start: np.ndarray
    goal: np.ndarray
    uav: UavPhysics = field(default_factory=UavPhysics)
    battery: BatteryModel = field(default_factory=BatteryModel)
    sensor_rate_hz: float = 30.0
    sensing_range_m: float = 10.0
    frame_profile: WorkloadProfile = field(
        default_factory=default_frame_profile
    )
    actuation_latency_s: float = 0.02
    robot_radius_m: float = 0.3
    laps: int = 1
    time_step_s: float = 0.05
    max_duration_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.sensor_rate_hz <= 0:
            raise ConfigurationError("sensor_rate_hz must be > 0")
        if self.sensing_range_m <= 0:
            raise ConfigurationError("sensing_range_m must be > 0")
        if self.time_step_s <= 0:
            raise ConfigurationError("time_step_s must be > 0")
        if self.laps < 1:
            raise ConfigurationError("laps must be >= 1")


@dataclass
class MissionResult:
    """Outcome of one closed-loop mission.

    Attributes:
        success: Goal reached before battery/timeout.
        failure_reason: ``""`` on success; ``"battery"`` or ``"timeout"``.
        mission_time_s: Flight time until success/failure.
        distance_m: Distance covered.
        energy_j: Total energy drawn.
        mean_speed_m_s: Average ground speed.
        safe_speed_m_s: The latency-limited speed bound used.
        pipeline_latency_s: End-to-end perception-to-action latency.
        compute_power_w: Compute power draw.
        hover_power_w: Hover power at all-up mass.
        total_mass_kg: All-up mass.
        endurance_s: Hover endurance with this payload.
    """

    success: bool
    failure_reason: str
    mission_time_s: float
    distance_m: float
    energy_j: float
    mean_speed_m_s: float
    safe_speed_m_s: float
    pipeline_latency_s: float
    compute_power_w: float
    hover_power_w: float
    total_mass_kg: float
    endurance_s: float

    def missions_per_charge(self) -> float:
        """How many such missions one charge supports (>1 is healthy).

        Failed missions score 0.  Degenerate inputs are guarded rather
        than propagated: a free mission (``energy_j <= 0``) supports
        infinitely many repeats, and a zero-power tier (``endurance_s =
        inf`` with zero total power, whose usable energy would otherwise
        evaluate to ``inf * 0 = NaN``) is likewise unlimited.
        """
        if not self.success:
            return 0.0
        if self.energy_j <= 0:
            return float("inf")
        usable = self.endurance_s * (self.hover_power_w
                                     + self.compute_power_w)
        if not math.isfinite(usable):
            return float("inf")
        return usable / self.energy_j


def pipeline_latency_s(platform: Platform,
                       frame_profile: WorkloadProfile,
                       sensor_rate_hz: float,
                       actuation_latency_s: float) -> float:
    """Perception-to-action latency of the frame pipeline on a platform.

    Sampling adds half a sensor period on average; compute adds its
    per-frame latency; when compute is slower than the frame period,
    frames queue/drop and staleness grows by the excess.
    """
    period = 1.0 / sensor_rate_hz
    compute = platform.estimate(frame_profile).latency_s
    staleness = max(0.0, compute - period)
    return 0.5 * period + compute + staleness + actuation_latency_s


@dataclass(frozen=True)
class Course:
    """A planned, lap-expanded mission course with its arc-length table.

    The occupancy-grid rasterization and A* plan that produce a course
    are *tier-independent*: every compute tier (and every battery /
    payload / sensor perturbation of the same scenario) flies the same
    polyline.  Planning once and reusing the :class:`Course` is what
    makes tier sweeps and fleet rollouts cheap: the process-wide store
    of :mod:`repro.system.courses` keeps one course per distinct set of
    planning inputs, with every array set read-only because all its
    users share it.  The precomputed
    cumulative lengths are also the single source of truth both the
    scalar chase loop and the vectorized fleet engine consume, so their
    per-step semantics cannot drift apart.

    Attributes:
        waypoints: ``(k, 2)`` world-frame polyline, laps included.
        start: The mission start position the arc lengths are measured
            from (the vehicle's first leg runs start -> waypoint 0).
        cumulative_m: ``(k,)`` arc length from ``start`` through each
            waypoint, i.e. ``cumulative_m[j]`` is the total distance a
            vehicle has flown once it reaches waypoint ``j``.
    """

    waypoints: np.ndarray
    start: np.ndarray
    cumulative_m: np.ndarray

    @property
    def total_length_m(self) -> float:
        """Full course length, start through the last waypoint."""
        return float(self.cumulative_m[-1])

    def __len__(self) -> int:
        return len(self.waypoints)


#: Occupancy-grid cell size (meters) missions plan their course on.
PLAN_RESOLUTION_M = 0.2


def plan_course(config: MissionConfig) -> Course:
    """Rasterize, plan, and lap-expand the mission course.

    This always plans; callers that may see the same planning inputs
    again resolve courses through
    :func:`repro.system.courses.ensure_course` instead.

    Raises:
        ConfigurationError: For non-2-D worlds.
        SimulationError: When no path exists through the world.
    """
    if config.world.dim != 2:
        raise ConfigurationError("missions require a 2-D world")
    grid = OccupancyGrid.from_world(config.world,
                                    resolution=PLAN_RESOLUTION_M)
    planner = GridPlanner(grid, robot_radius=config.robot_radius_m)
    plan = planner.plan(config.start, config.goal)
    if not plan.found:
        raise SimulationError(
            "no path through the mission world; regenerate the scenario"
        )
    waypoints = planner.path_to_world(plan)
    if config.laps > 1:
        forward = waypoints
        backward = waypoints[::-1]
        course = [forward]
        for lap in range(1, config.laps):
            leg = backward if lap % 2 == 1 else forward
            course.append(leg[1:])
        waypoints = np.concatenate(course, axis=0)
    start = np.asarray(config.start, dtype=float).copy()
    legs = np.diff(waypoints, axis=0, prepend=start[None, :])
    gaps = np.sqrt((legs * legs).sum(axis=1))
    return Course(waypoints=waypoints, start=start,
                  cumulative_m=np.cumsum(gaps))


def run_mission(config: MissionConfig, platform: Platform,
                compute_mass_kg: float,
                compute_power_w: float,
                course: Optional[Course] = None) -> MissionResult:
    """Fly the mission with the given compute tier installed.

    The closed-loop traversal is dt-quantized: each step the vehicle
    spends ``total_power * dt`` of battery and advances ``safe_speed *
    dt`` of travel budget along the course's precomputed arc-length
    table.  Waypoint ``j`` counts as reached once the cumulative travel
    budget covers ``course.cumulative_m[j]``.  Every per-step quantity
    is a pure function of the step index (multiplication, not a running
    sum), which is what lets :mod:`repro.system.fleet` evaluate whole
    rollout populations in closed form with field-identical results.

    Args:
        config: Scenario.
        platform: Analytical platform model for the tier.
        compute_mass_kg: Module mass added to the airframe.
        compute_power_w: Module power draw while flying.
        course: Optional precomputed :func:`plan_course` output for this
            exact config (world, endpoints, radius, laps).  ``None``
            resolves it through the process-wide course store
            (:func:`repro.system.courses.ensure_course`), so repeated
            missions over one world plan it once.

    Returns:
        A :class:`MissionResult`; never raises on mission failure (that
        is an outcome, not an error).
    """
    if course is None:
        from repro.system.courses import ensure_course

        course = ensure_course(config)

    latency = pipeline_latency_s(platform, config.frame_profile,
                                 config.sensor_rate_hz,
                                 config.actuation_latency_s)
    safe_speed = config.uav.safe_speed_m_s(config.sensing_range_m,
                                           latency)

    total_mass = (config.uav.frame_mass_kg + config.battery.mass_kg
                  + compute_mass_kg)
    hover_power = config.uav.hover_power_w(total_mass)
    total_power = hover_power + compute_power_w
    endurance = config.battery.usable_energy_j / total_power

    dt = config.time_step_s
    budget = config.battery.usable_energy_j
    step_travel = safe_speed * dt
    step_energy = total_power * dt
    cumulative = course.cumulative_m.tolist()
    n_waypoints = len(cumulative)

    # Closed-loop traversal: chase waypoints at the safe speed, reading
    # reach-events off the precomputed arc-length table.
    target_index = 0
    steps = 0
    success = False
    reason = "timeout"
    while steps * dt < config.max_duration_s:
        if target_index >= n_waypoints:
            success = True
            reason = ""
            break
        if (steps + 1) * step_energy > budget:
            reason = "battery"
            break
        traveled = (steps + 1) * step_travel
        while (target_index < n_waypoints
               and cumulative[target_index] <= traveled):
            target_index += 1
        steps += 1

    elapsed = steps * dt
    energy = steps * step_energy
    distance = min(steps * step_travel, course.total_length_m)

    return MissionResult(
        success=success,
        failure_reason=reason,
        mission_time_s=elapsed,
        distance_m=distance,
        energy_j=energy,
        mean_speed_m_s=distance / elapsed if elapsed > 0 else 0.0,
        safe_speed_m_s=safe_speed,
        pipeline_latency_s=latency,
        compute_power_w=compute_power_w,
        hover_power_w=hover_power,
        total_mass_kg=total_mass,
        endurance_s=endurance,
    )


def sweep_compute_tiers(
    config: MissionConfig,
    tiers: Sequence[Tuple[str, Platform, float, float]],
    course: Optional[Course] = None,
) -> List[Tuple[str, MissionResult]]:
    """Run the mission across a compute ladder (see
    :func:`repro.hw.catalog.uav_compute_tiers`).

    The occupancy-grid rasterization and A* plan are tier-independent,
    so the sweep resolves the course once (through the course store
    when ``course`` is ``None``) and reuses it for every tier.

    Returns:
        ``(tier name, result)`` pairs in the given order.
    """
    if not tiers:
        raise ConfigurationError("need at least one tier")
    if course is None:
        from repro.system.courses import ensure_course

        course = ensure_course(config)
    return [
        (name, run_mission(config, platform, mass, power, course=course))
        for name, platform, mass, power in tiers
    ]
