"""Workload profiles and cost estimates: the framework's central contract.

Every instrumented kernel in :mod:`repro.kernels` *measures* the work it
performs (floating-point operations, integer operations, bytes moved) and
reports it as a :class:`WorkloadProfile`.  Every platform model in
:mod:`repro.hw` consumes a profile and prices it as a :class:`CostEstimate`.
The system simulator in :mod:`repro.system` then sequences priced work into
end-to-end timelines.  Keeping this contract small is what lets the seven
experiments share one substrate.

Units are SI throughout: operations are dimensionless counts, bytes are
bytes, latency is seconds, energy is joules, power is watts, area is mm^2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Optional

from repro.errors import ProfileError


class DivergenceClass(enum.Enum):
    """How control-flow-divergent a kernel is.

    Platforms with lockstep execution (GPUs, systolic ASICs) derate their
    effective throughput on divergent kernels; scalar CPUs do not.
    """

    NONE = "none"  # straight-line dataflow (GEMM, convolution)
    LOW = "low"  # mostly uniform with rare branches (filters, stencils)
    HIGH = "high"  # data-dependent branching (tree search, RRT expansion)


#: Multiplicative throughput derating applied by lockstep platforms,
#: indexed by divergence class.  Values are first-order and shared by all
#: platform models so comparisons remain apples-to-apples.
DIVERGENCE_DERATING: Dict[DivergenceClass, float] = {
    DivergenceClass.NONE: 1.0,
    DivergenceClass.LOW: 0.7,
    DivergenceClass.HIGH: 0.25,
}


@dataclass(frozen=True)
class WorkloadProfile:
    """A platform-independent account of the work one invocation performs.

    Attributes:
        name: Human-readable kernel identity (e.g. ``"gemm-256"``).
        flops: Floating-point operations (adds, muls, fused counted as 2).
        int_ops: Integer/logic operations that dominate some kernels
            (collision bit tests, index arithmetic in planners).
        bytes_read: Bytes read from the memory system (beyond registers).
        bytes_written: Bytes written to the memory system.
        working_set_bytes: Peak resident data footprint; platforms compare
            this to their on-chip capacity to decide whether traffic is
            served on-chip or spills off-chip.
        parallel_fraction: Fraction of the work that is parallelizable
            (Amdahl's ``p``), in [0, 1].
        divergence: Control-flow divergence class (see
            :class:`DivergenceClass`).
        op_class: Coarse operation class used by accelerator mapping tables
            (e.g. ``"gemm"``, ``"collision"``, ``"stencil"``, ``"generic"``).
    """

    name: str
    flops: float = 0.0
    int_ops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    working_set_bytes: float = 0.0
    parallel_fraction: float = 0.9
    divergence: DivergenceClass = DivergenceClass.LOW
    op_class: str = "generic"

    def __post_init__(self) -> None:
        for attr in ("flops", "int_ops", "bytes_read", "bytes_written",
                     "working_set_bytes"):
            value = getattr(self, attr)
            if value < 0 or math.isnan(value):
                raise ProfileError(
                    f"profile {self.name!r}: {attr} must be >= 0, got {value}"
                )
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ProfileError(
                f"profile {self.name!r}: parallel_fraction must be in [0, 1],"
                f" got {self.parallel_fraction}"
            )

    @property
    def total_ops(self) -> float:
        """All arithmetic operations, float and integer."""
        return self.flops + self.int_ops

    @property
    def total_bytes(self) -> float:
        """All memory traffic, reads plus writes."""
        return self.bytes_read + self.bytes_written

    @property
    def arithmetic_intensity(self) -> float:
        """Operations per byte of memory traffic (the roofline x-axis).

        A compute-only profile (zero traffic) returns ``inf``; an empty
        profile returns 0.
        """
        if self.total_bytes == 0:
            return math.inf if self.total_ops > 0 else 0.0
        return self.total_ops / self.total_bytes

    def scaled(self, factor: float) -> "WorkloadProfile":
        """Return this profile with all counts multiplied by ``factor``.

        Useful for expressing ``n`` invocations or a problem-size scaling.
        Parallel fraction and divergence are size-independent and kept.
        """
        if factor < 0:
            raise ProfileError(f"scale factor must be >= 0, got {factor}")
        return replace(
            self,
            flops=self.flops * factor,
            int_ops=self.int_ops * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
        )

    def combined(self, other: "WorkloadProfile",
                 name: Optional[str] = None) -> "WorkloadProfile":
        """Merge two profiles executed back-to-back into one.

        Counts add; ``working_set_bytes`` takes the max (sequential phases
        reuse memory); ``parallel_fraction`` is the op-weighted mean;
        divergence takes the worse class; ``op_class`` becomes ``"mixed"``
        unless both agree.
        """
        total = self.total_ops + other.total_ops
        lo = min(self.parallel_fraction, other.parallel_fraction)
        hi = max(self.parallel_fraction, other.parallel_fraction)
        if total > 0:
            par = (self.parallel_fraction * self.total_ops
                   + other.parallel_fraction * other.total_ops) / total
            # Subnormal op counts underflow the products (0.4 * 5e-324
            # rounds to 0); a weighted mean never leaves its inputs' range.
            par = min(hi, max(lo, par))
        else:
            par = hi
        order = [DivergenceClass.NONE, DivergenceClass.LOW,
                 DivergenceClass.HIGH]
        divergence = max(self.divergence, other.divergence,
                         key=order.index)
        op_class = self.op_class if self.op_class == other.op_class else "mixed"
        return WorkloadProfile(
            name=name or f"{self.name}+{other.name}",
            flops=self.flops + other.flops,
            int_ops=self.int_ops + other.int_ops,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            working_set_bytes=max(self.working_set_bytes,
                                  other.working_set_bytes),
            parallel_fraction=min(1.0, par),
            divergence=divergence,
            op_class=op_class,
        )

    @staticmethod
    def merge(profiles: Iterable["WorkloadProfile"],
              name: str = "merged") -> "WorkloadProfile":
        """Merge an iterable of profiles (see :meth:`combined`)."""
        merged: Optional[WorkloadProfile] = None
        for profile in profiles:
            merged = profile if merged is None else merged.combined(profile)
        if merged is None:
            return WorkloadProfile(name=name)
        return replace(merged, name=name)


@dataclass(frozen=True)
class CostEstimate:
    """What one invocation of a profile costs on a concrete platform.

    Attributes:
        latency_s: Wall-clock service time for one invocation.
        energy_j: Energy consumed by the invocation (dynamic + its share
            of static power over ``latency_s``).
        power_w: Mean power over the invocation.
        area_mm2: Silicon area attributable to the executing unit (for
            ASIC/FPGA models; 0 when shared or not modeled).
        platform: Name of the platform that produced the estimate.
        bound: What limited performance: ``"compute"``, ``"memory"``, or
            ``"serial"`` (Amdahl-limited).
    """

    latency_s: float
    energy_j: float
    power_w: float = 0.0
    area_mm2: float = 0.0
    platform: str = ""
    bound: str = "compute"

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.energy_j < 0:
            raise ProfileError(
                f"cost estimate for {self.platform!r} has negative"
                f" latency/energy: {self.latency_s}, {self.energy_j}"
            )

    @property
    def edp(self) -> float:
        """Energy-delay product (J*s), the metric §2.2 warns against
        optimizing in isolation."""
        return self.energy_j * self.latency_s

    def throughput_hz(self) -> float:
        """Invocations per second if run back-to-back."""
        return math.inf if self.latency_s == 0 else 1.0 / self.latency_s


@dataclass
class OpCounter:
    """Mutable accumulator kernels use to *measure* their own work.

    Instrumented kernels accept an optional counter and call the ``add_*``
    methods as they execute; at the end the counter is frozen into a
    :class:`WorkloadProfile`.  Counting happens inside the algorithms (next
    to the numpy calls that do the work), so profiles track actual control
    flow — e.g. an RRT that terminates early reports fewer collision checks.
    """

    name: str = "counted"
    flops: float = 0.0
    int_ops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    working_set_bytes: float = 0.0
    _events: int = field(default=0, repr=False)

    def add_flops(self, count: float) -> None:
        self.flops += count
        self._events += 1

    def add_int_ops(self, count: float) -> None:
        self.int_ops += count
        self._events += 1

    def add_read(self, nbytes: float) -> None:
        self.bytes_read += nbytes
        self._events += 1

    def add_write(self, nbytes: float) -> None:
        self.bytes_written += nbytes
        self._events += 1

    def note_working_set(self, nbytes: float) -> None:
        """Record a live-data footprint; the peak is kept."""
        self.working_set_bytes = max(self.working_set_bytes, nbytes)

    def add_gemm(self, m: int, n: int, k: int, dtype_bytes: int = 8) -> None:
        """Record one ``m x k @ k x n`` matrix multiply."""
        self.add_flops(2.0 * m * n * k)
        self.add_read(dtype_bytes * (m * k + k * n))
        self.add_write(dtype_bytes * m * n)
        self.note_working_set(dtype_bytes * (m * k + k * n + m * n))

    def add_axpy(self, n: int, dtype_bytes: int = 8) -> None:
        """Record one ``y += a * x`` over vectors of length ``n``."""
        self.add_flops(2.0 * n)
        self.add_read(2.0 * dtype_bytes * n)
        self.add_write(float(dtype_bytes) * n)

    @property
    def events(self) -> int:
        """Number of instrumentation calls recorded (for tests)."""
        return self._events

    def profile(self, parallel_fraction: float = 0.9,
                divergence: DivergenceClass = DivergenceClass.LOW,
                op_class: str = "generic") -> WorkloadProfile:
        """Freeze the accumulated counts into an immutable profile."""
        return WorkloadProfile(
            name=self.name,
            flops=self.flops,
            int_ops=self.int_ops,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            working_set_bytes=self.working_set_bytes,
            parallel_fraction=parallel_fraction,
            divergence=divergence,
            op_class=op_class,
        )
