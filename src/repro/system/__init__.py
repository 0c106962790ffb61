"""End-to-end system modeling and simulation (MAVBench/RoSE-style).

The paper's central "opportunity" (§3.1): model the *whole* system —
sensors, compute, I/O, actuators, vehicle physics, battery — not just the
kernel.  Components:

- :mod:`~repro.system.des`       — a discrete-event simulation engine;
- :mod:`~repro.system.sensors`   — rate-driven sensor sources with jitter;
- :mod:`~repro.system.io_model`  — serialization/transport costs (the
  "AI tax" of §2.6);
- :mod:`~repro.system.pipeline`  — queued processing pipelines over task
  graphs, with per-sample end-to-end latency accounting;
- :mod:`~repro.system.scheduler` — shared-processor scheduling policies
  (FIFO / priority / EDF / rate-monotonic analysis);
- :mod:`~repro.system.robot`     — UAV mass/power/battery physics;
- :mod:`~repro.system.mission`   — closed-loop missions where compute
  latency limits safe speed and compute mass/power drains the battery
  (the §2.4 experiment);
- :mod:`~repro.system.courses`   — the process-wide course store: each
  distinct world/endpoint/radius/lap set is planned once per process;
- :mod:`~repro.system.fleet`     — the vectorized fleet engine: whole
  rollout populations (tiers × scenarios × Monte Carlo perturbations)
  evaluated in closed form, exactly equal to per-rollout
  :func:`~repro.system.mission.run_mission`.
"""

from repro.system.courses import ensure_course
from repro.system.des import Event, Simulator
from repro.system.faults import (
    FaultSchedule,
    ThermalModel,
    run_mission_with_faults,
)
from repro.system.fleet import (
    FleetPerturbation,
    FleetResult,
    FleetRollout,
    FleetStudy,
    FleetStudyResult,
    TierStatistics,
    run_fleet,
    tier_rollouts,
)
from repro.system.io_model import IoModel, ros_like_middleware
from repro.system.mission import (
    Course,
    MissionConfig,
    MissionResult,
    plan_course,
    run_mission,
    sweep_compute_tiers,
)
from repro.system.pipeline import PipelineSimulation, StageStats
from repro.system.robot import BatteryModel, UavPhysics
from repro.system.scheduler import (
    PeriodicTask,
    SchedulerPolicy,
    SchedulerResult,
    simulate_scheduler,
)
from repro.system.sensors import Sensor, camera, imu, lidar

__all__ = [
    "BatteryModel",
    "Course",
    "Event",
    "FaultSchedule",
    "FleetPerturbation",
    "FleetResult",
    "FleetRollout",
    "FleetStudy",
    "FleetStudyResult",
    "IoModel",
    "ThermalModel",
    "TierStatistics",
    "run_mission_with_faults",
    "MissionConfig",
    "MissionResult",
    "PeriodicTask",
    "PipelineSimulation",
    "SchedulerPolicy",
    "SchedulerResult",
    "Sensor",
    "Simulator",
    "StageStats",
    "UavPhysics",
    "camera",
    "ensure_course",
    "imu",
    "lidar",
    "plan_course",
    "ros_like_middleware",
    "run_fleet",
    "run_mission",
    "simulate_scheduler",
    "sweep_compute_tiers",
    "tier_rollouts",
]
