"""The workload registry: representative autonomy pipelines.

Each builder returns a :class:`~repro.core.workload.Workload` whose task
graph is made of *measured-shape* profiles from :mod:`repro.kernels` —
the suite spans perception, estimation, planning, control, and learning
so that single-kernel widgets cannot score well on it (§2.3 by
construction).
"""

from __future__ import annotations

from typing import List

from repro.core.profile import DivergenceClass, WorkloadProfile
from repro.core.workload import Stage, TaskGraph, Workload
from repro.errors import BenchmarkError
from repro.kernels.control.lqr import lqr_profile
from repro.kernels.control.mpc import mpc_profile
from repro.kernels.dynamics import mass_matrix_profile, rnea_profile
from repro.kernels.linalg import cholesky_profile, gemm_profile
from repro.kernels.planning.collision import collision_profile
from repro.kernels.vision.features import harris_profile
from repro.kernels.vision.optical_flow import lk_profile
from repro.kernels.vision.stereo import stereo_profile
from repro.spec.registry import WORKLOADS


@WORKLOADS.register("vio-navigation")
def vio_navigation() -> Workload:
    """Visual-inertial navigation: the Navion-class pipeline (30 Hz)."""
    detect = harris_profile(480, name="detect")
    track = lk_profile(n_points=120, name="track")
    estimate = WorkloadProfile(
        name="estimate", flops=4e6, bytes_read=2e5, bytes_written=5e4,
        working_set_bytes=2e5, parallel_fraction=0.7,
        divergence=DivergenceClass.HIGH, op_class="linalg",
    )
    fuse = cholesky_profile(60, name="fuse")
    graph = TaskGraph("vio-navigation", [
        Stage("detect", detect, rate_hz=30.0, output_bytes=120 * 16),
        Stage("track", track, deps=("detect",), output_bytes=120 * 32),
        Stage("estimate", estimate, deps=("track",), output_bytes=256),
        Stage("fuse", fuse, deps=("estimate",), output_bytes=128),
    ])
    return Workload(name="vio-navigation", graph=graph,
                    target_rate_hz=30.0, quality_metric="ate_rmse_m",
                    tags=("uav", "perception"))


@WORKLOADS.register("slam-backend")
def slam_backend() -> Workload:
    """Pose-graph SLAM backend: sparse linear algebra at 5 Hz."""
    linearize = WorkloadProfile(
        name="linearize", flops=2e6, bytes_read=4e6, bytes_written=1e6,
        working_set_bytes=5e6, parallel_fraction=0.95,
        divergence=DivergenceClass.LOW, op_class="linalg",
    )
    factorize = cholesky_profile(600, name="factorize")
    solve = gemm_profile(600, 1, 600, name="solve")
    graph = TaskGraph("slam-backend", [
        Stage("linearize", linearize, rate_hz=5.0, output_bytes=4e6),
        Stage("factorize", factorize, deps=("linearize",),
              output_bytes=2e6),
        Stage("solve", solve, deps=("factorize",), output_bytes=5e3),
    ])
    return Workload(name="slam-backend", graph=graph,
                    target_rate_hz=5.0, quality_metric="ate_rmse_m",
                    tags=("mapping",))


@WORKLOADS.register("batch-planning")
def batch_planning() -> Workload:
    """Sampling-based planning with vectorized collision checks (10 Hz)."""
    sample = WorkloadProfile(
        name="sample", flops=5e5, int_ops=5e5, bytes_read=4e5,
        bytes_written=4e5, working_set_bytes=5e5,
        parallel_fraction=0.9, divergence=DivergenceClass.LOW,
        op_class="sampling",
    )
    check = collision_profile(n_checks=20000, n_obstacles=80,
                              vectorized=True, name="collision")
    smooth = collision_profile(n_checks=3000, n_obstacles=80,
                               vectorized=True, name="smooth")
    graph = TaskGraph("batch-planning", [
        Stage("sample", sample, rate_hz=10.0, output_bytes=3e5),
        Stage("collision", check, deps=("sample",), output_bytes=3e4),
        Stage("smooth", smooth, deps=("collision",), output_bytes=1e4),
    ])
    return Workload(name="batch-planning", graph=graph,
                    target_rate_hz=10.0,
                    quality_metric="path_length_ratio",
                    tags=("manipulation", "uav"))


@WORKLOADS.register("manipulation-control")
def manipulation_control() -> Workload:
    """Trajectory optimization for a 7-DoF arm at 10 Hz.

    The hot stage is *batched* rigid-body dynamics — 1024 sampled
    rollouts x 16 knot points of RNEA, the GRiD/robomorphic-computing
    workload — followed by a mass-matrix factor and an MPC solve.
    Rollouts are mutually independent, so the batch is highly parallel
    even though a single RNEA pass is recursion-bound.
    """
    from dataclasses import replace

    rollouts = replace(
        rnea_profile(7, name="rollout-dynamics").scaled(1024 * 16),
        name="rollout-dynamics", parallel_fraction=0.99,
    )
    mass = mass_matrix_profile(7, name="crba")
    mpc = mpc_profile(14, 7, horizon=12, name="mpc")
    graph = TaskGraph("manipulation-control", [
        Stage("rollout-dynamics", rollouts, rate_hz=10.0,
              output_bytes=1024 * 64),
        Stage("crba", mass, deps=("rollout-dynamics",),
              output_bytes=1024),
        Stage("mpc", mpc, deps=("crba",), output_bytes=256),
    ])
    return Workload(name="manipulation-control", graph=graph,
                    target_rate_hz=10.0,
                    quality_metric="tracking_error",
                    tags=("manipulation", "control"))


@WORKLOADS.register("ml-inference")
def ml_inference() -> Workload:
    """DNN perception inference: im2col GEMM stack at 30 Hz."""
    conv1 = gemm_profile(64, 10000, 147, name="conv1")
    conv2 = gemm_profile(128, 2500, 576, name="conv2")
    head = gemm_profile(1000, 1, 2048, name="head")
    graph = TaskGraph("ml-inference", [
        Stage("conv1", conv1, rate_hz=30.0, output_bytes=2.5e6),
        Stage("conv2", conv2, deps=("conv1",), output_bytes=1.2e6),
        Stage("head", head, deps=("conv2",), output_bytes=4e3),
    ])
    return Workload(name="ml-inference", graph=graph,
                    target_rate_hz=30.0, quality_metric="accuracy",
                    tags=("perception", "ml"))


@WORKLOADS.register("stereo-mapping")
def stereo_mapping() -> Workload:
    """Dense stereo + occupancy fusion at 10 Hz."""
    stereo = stereo_profile(320, max_disparity=32, name="stereo")
    fuse = WorkloadProfile(
        name="grid-fuse", flops=1e6, int_ops=4e6, bytes_read=4e6,
        bytes_written=4e6, working_set_bytes=8e6,
        parallel_fraction=0.97, divergence=DivergenceClass.LOW,
        op_class="stencil",
    )
    graph = TaskGraph("stereo-mapping", [
        Stage("stereo", stereo, rate_hz=10.0, output_bytes=4e5),
        Stage("grid-fuse", fuse, deps=("stereo",), output_bytes=1e5),
    ])
    return Workload(name="stereo-mapping", graph=graph,
                    target_rate_hz=10.0, quality_metric="map_quality",
                    tags=("mapping", "perception"))


@WORKLOADS.register("safety-monitor")
def safety_monitor() -> Workload:
    """Redundant safety checking: LQR envelope + fast collision (50 Hz)."""
    envelope = lqr_profile(12, 4, riccati_iterations=20, name="envelope")
    proximity = collision_profile(n_checks=500, n_obstacles=40,
                                  vectorized=True, name="proximity")
    graph = TaskGraph("safety-monitor", [
        Stage("proximity", proximity, rate_hz=50.0, output_bytes=1e3),
        Stage("envelope", envelope, deps=("proximity",),
              output_bytes=256),
    ])
    return Workload(name="safety-monitor", graph=graph,
                    target_rate_hz=50.0, quality_metric="success_rate",
                    tags=("safety", "control"))


@WORKLOADS.register("agile-trajopt")
def agile_trajopt() -> Workload:
    """Agile-flight trajectory optimization: iLQR at 50 Hz.

    Profile magnitudes follow one measured
    :class:`repro.kernels.control.IlqrSolver` solve (12-state quad
    model, horizon 30, ~8 iterations): small dense linear algebra with
    a strictly sequential backward recursion.
    """
    linearize = WorkloadProfile(
        name="linearize", flops=3e6, bytes_read=6e5,
        bytes_written=3e5, working_set_bytes=8e5,
        parallel_fraction=0.9, divergence=DivergenceClass.LOW,
        op_class="linalg",
    )
    backward = WorkloadProfile(
        name="backward-pass", flops=5e6, bytes_read=8e5,
        bytes_written=4e5, working_set_bytes=8e5,
        parallel_fraction=0.5, divergence=DivergenceClass.LOW,
        op_class="linalg",
    )
    rollout = WorkloadProfile(
        name="rollout", flops=1e6, bytes_read=2e5, bytes_written=2e5,
        working_set_bytes=3e5, parallel_fraction=0.3,
        divergence=DivergenceClass.LOW, op_class="dynamics",
    )
    graph = TaskGraph("agile-trajopt", [
        Stage("linearize", linearize, rate_hz=50.0,
              output_bytes=2e5),
        Stage("backward-pass", backward, deps=("linearize",),
              output_bytes=1e5),
        Stage("rollout", rollout, deps=("backward-pass",),
              output_bytes=5e4),
    ])
    return Workload(name="agile-trajopt", graph=graph,
                    target_rate_hz=50.0,
                    quality_metric="tracking_error",
                    tags=("uav", "control"))


@WORKLOADS.register("multi-object-tracking")
def multi_object_tracking() -> Workload:
    """Camera MOT: embedding GEMM + Hungarian association at 30 Hz."""
    from repro.kernels.vision.association import association_profile

    embed = gemm_profile(128, 600, 256, name="embed")
    associate = association_profile(60, 60, optimal=True,
                                    name="associate")
    update = WorkloadProfile(
        name="track-update", flops=8e5, bytes_read=2e5,
        bytes_written=2e5, working_set_bytes=3e5,
        parallel_fraction=0.85, divergence=DivergenceClass.LOW,
        op_class="linalg",
    )
    graph = TaskGraph("multi-object-tracking", [
        Stage("embed", embed, rate_hz=30.0, output_bytes=3e5),
        Stage("associate", associate, deps=("embed",),
              output_bytes=2e4),
        Stage("track-update", update, deps=("associate",),
              output_bytes=1e4),
    ])
    return Workload(name="multi-object-tracking", graph=graph,
                    target_rate_hz=30.0, quality_metric="success_rate",
                    tags=("perception", "av"))


def build_workload(name: str) -> Workload:
    """Build one registered workload by name."""
    if name not in WORKLOADS:
        raise BenchmarkError(
            f"unknown workload {name!r}; registered:"
            f" {sorted(WORKLOADS.names())}")
    return WORKLOADS.get(name)()


def standard_suite() -> List[Workload]:
    """All registered workloads, in registry order."""
    return [entry.builder() for entry in WORKLOADS.entries()]
