"""Structure-of-arrays batch roofline pricing.

:meth:`~repro.hw.platform.AnalyticalPlatform.estimate` prices one
(platform, profile) pair per call; the cost of a 10k-candidate DSE sweep
is therefore dominated by interpreter overhead, not arithmetic — the
framework-level version of the scalar-vs-vectorized gap the paper's §2.5
demonstrates for motion planning (and that
:mod:`repro.kernels.planning.collision` demonstrates in-repo).

This module applies the same scalar→batch transformation to the pricing
model itself:

- :class:`PlatformSoA` — ``n`` :class:`~repro.hw.platform.PlatformConfig`
  instances transposed into columns (one contiguous array per field);
- :class:`ProfileSoA` — ``m`` :class:`~repro.core.profile.WorkloadProfile`
  instances, likewise;
- :func:`batch_estimate` — the whole ``(n, m)`` cost block in fused numpy
  expressions: Amdahl split, divergence derating, on/off-chip traffic
  selection, compute/memory overlap, and energy, all as array ops.

**Scalar-equivalence contract**: every expression mirrors the scalar
path in :class:`~repro.hw.platform.AnalyticalPlatform` operation for
operation (same operands, same association order), so results are
**bit-identical** to per-pair ``estimate()`` calls — IEEE-754 double
arithmetic is deterministic, and nothing here reorders it.  The contract
is enforced by ``tests/props/test_property_batch_pricing.py``.

The kernel is only valid for platforms that price *exactly* like
``AnalyticalPlatform`` — subclasses that override ``estimate`` /
``supports`` / the roofline hooks (ASIC mapping tables, FPGA
reconfiguration, contention wrappers) must stay on the scalar path;
:func:`is_soa_priceable` is the gate.
"""

from __future__ import annotations

import collections.abc
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.profile import (
    DIVERGENCE_DERATING,
    CostEstimate,
    WorkloadProfile,
)
from repro.engine.arena import BatchArena, Workspace
from repro.errors import ConfigurationError
from repro.hw.platform import AnalyticalPlatform, Platform, PlatformConfig
from repro.telemetry.profiling import get_alloc_meter

__all__ = [
    "BOUND_NAMES",
    "BatchCost",
    "LazyNames",
    "PlatformSoA",
    "ProfileSoA",
    "batch_estimate",
    "is_soa_priceable",
]

#: Bound-code → name mapping for :attr:`BatchCost.bound` (codes are
#: array-friendly; names match ``CostEstimate.bound``).
BOUND_NAMES: Tuple[str, ...] = ("compute", "memory", "serial")
_BOUND_COMPUTE, _BOUND_MEMORY, _BOUND_SERIAL = 0, 1, 2

#: The pricing hooks a platform must inherit unchanged for the SoA
#: kernel to reproduce its estimates.
_PRICING_HOOKS: Tuple[Tuple[type, str], ...] = (
    (AnalyticalPlatform, "estimate"),
    (Platform, "supports"),
    (AnalyticalPlatform, "_divergence_derating"),
    (AnalyticalPlatform, "_effective_bandwidth"),
    (AnalyticalPlatform, "_traffic_energy_per_byte"),
)


#: Per-class verdict cache: the hook check is a pure function of the
#: class, and the fleet engine asks once per *rollout*, so population
#: sweeps would otherwise re-walk the hook list 100k+ times.
_PRICEABLE_CACHE: Dict[type, bool] = {}


def is_soa_priceable(platform: Platform) -> bool:
    """Whether :func:`batch_estimate` reproduces ``platform.estimate``.

    True exactly when the platform is an
    :class:`~repro.hw.platform.AnalyticalPlatform` that inherits every
    pricing hook unchanged (CPU/GPU catalog models, co-design roofline
    platforms); False for accelerators with mapping tables or custom
    roofline terms, which must be priced scalar.
    """
    cls = type(platform)
    verdict = _PRICEABLE_CACHE.get(cls)
    if verdict is None:
        verdict = _PRICEABLE_CACHE[cls] = (
            issubclass(cls, AnalyticalPlatform)
            and all(getattr(cls, name) is getattr(owner, name)
                    for owner, name in _PRICING_HOOKS))
    return verdict


class LazyNames(collections.abc.Sequence):
    """A tuple of ``n`` names, built by ``build()`` on first read.

    Equal (and hash-equal) to that tuple, and it pickles as the tuple;
    ``len`` never builds it.  Lets an encoder skip formatting one name
    per row when, as in a DSE screen, nobody reads the names.
    """

    __slots__ = ("_n", "_build", "_names")

    def __init__(self, n: int, build: Callable[[], Tuple[str, ...]]):
        self._n = n
        self._build: Optional[Callable[[], Tuple[str, ...]]] = build
        self._names: Optional[Tuple[str, ...]] = None

    def _tuple(self) -> Tuple[str, ...]:
        if self._names is None:
            assert self._build is not None
            self._names, self._build = tuple(self._build()), None
        return self._names

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, item):
        return self._tuple()[item]

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyNames):
            other = other._tuple()
        if not isinstance(other, tuple):
            return NotImplemented
        return self._tuple() == other

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())

    def __reduce__(self):
        return tuple, (self._tuple(),)


def _column(items: Sequence, get: Callable) -> np.ndarray:
    return np.array([get(item) for item in items], dtype=float)


@dataclass(frozen=True)
class PlatformSoA:
    """``n`` platform configs as columns (SI units, float64).

    Field semantics match :class:`~repro.hw.platform.PlatformConfig`;
    the optional-with-default fields (``peak_int_ops``,
    ``energy_per_int_op``) are pre-resolved into ``int_throughput`` /
    ``int_energy`` exactly as the scalar properties resolve them.
    ``names`` is a tuple, or a :class:`LazyNames` equal to one.
    """

    names: Sequence[str]
    scalar_flops: np.ndarray
    peak_flops: np.ndarray
    int_throughput: np.ndarray
    onchip_bytes: np.ndarray
    onchip_bw: np.ndarray
    offchip_bw: np.ndarray
    launch_overhead_s: np.ndarray
    energy_per_flop: np.ndarray
    int_energy: np.ndarray
    energy_per_byte_onchip: np.ndarray
    energy_per_byte_offchip: np.ndarray
    static_power_w: np.ndarray
    area_mm2: np.ndarray
    lockstep: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.names)

    @staticmethod
    def from_configs(configs: Sequence[PlatformConfig]) -> "PlatformSoA":
        """Transpose validated configs into columns."""
        return PlatformSoA(
            names=tuple(c.name for c in configs),
            scalar_flops=_column(configs, lambda c: c.scalar_flops),
            peak_flops=_column(configs, lambda c: c.peak_flops),
            int_throughput=_column(configs, lambda c: c.int_throughput),
            onchip_bytes=_column(configs, lambda c: c.onchip_bytes),
            onchip_bw=_column(configs, lambda c: c.onchip_bw),
            offchip_bw=_column(configs, lambda c: c.offchip_bw),
            launch_overhead_s=_column(
                configs, lambda c: c.launch_overhead_s),
            energy_per_flop=_column(
                configs, lambda c: c.energy_per_flop),
            int_energy=_column(configs, lambda c: c.int_energy),
            energy_per_byte_onchip=_column(
                configs, lambda c: c.energy_per_byte_onchip),
            energy_per_byte_offchip=_column(
                configs, lambda c: c.energy_per_byte_offchip),
            static_power_w=_column(configs, lambda c: c.static_power_w),
            area_mm2=_column(configs, lambda c: c.area_mm2),
            lockstep=np.array([c.lockstep for c in configs], dtype=bool),
        )

    @staticmethod
    def from_platforms(platforms: Sequence[Platform]) -> "PlatformSoA":
        """Encode platforms, refusing any the kernel cannot reproduce."""
        for platform in platforms:
            if not is_soa_priceable(platform):
                raise ConfigurationError(
                    f"platform {platform.name!r} ({type(platform).__name__})"
                    f" overrides analytical pricing and cannot be"
                    f" SoA-encoded; price it through the scalar path"
                )
        return PlatformSoA.from_configs([p.config for p in platforms])


@dataclass(frozen=True)
class ProfileSoA:
    """``m`` workload profiles as columns (float64).

    ``derating`` is the pre-resolved ``DIVERGENCE_DERATING`` value of
    each profile's divergence class; it only applies on lockstep rows
    (:func:`batch_estimate` masks it), mirroring the scalar hook.
    """

    names: Tuple[str, ...]
    flops: np.ndarray
    int_ops: np.ndarray
    total_bytes: np.ndarray
    working_set_bytes: np.ndarray
    parallel_fraction: np.ndarray
    derating: np.ndarray

    def __len__(self) -> int:
        return len(self.names)

    @property
    def total_ops(self) -> np.ndarray:
        return self.flops + self.int_ops

    @staticmethod
    def from_profiles(
        profiles: Sequence[WorkloadProfile],
    ) -> "ProfileSoA":
        """Transpose validated profiles into columns."""
        return ProfileSoA(
            names=tuple(p.name for p in profiles),
            flops=_column(profiles, lambda p: p.flops),
            int_ops=_column(profiles, lambda p: p.int_ops),
            total_bytes=_column(profiles, lambda p: p.total_bytes),
            working_set_bytes=_column(
                profiles, lambda p: p.working_set_bytes),
            parallel_fraction=_column(
                profiles, lambda p: p.parallel_fraction),
            derating=_column(
                profiles, lambda p: DIVERGENCE_DERATING[p.divergence]),
        )


@dataclass(frozen=True)
class BatchCost:
    """The priced ``(n_platforms, m_profiles)`` block.

    Every array has shape ``(n, m)``; entry ``[i, j]`` is bit-identical
    to ``platform_i.estimate(profile_j)``.  ``bound`` holds codes into
    :data:`BOUND_NAMES`.
    """

    platform_names: Sequence[str]
    profile_names: Tuple[str, ...]
    latency_s: np.ndarray
    energy_j: np.ndarray
    power_w: np.ndarray
    bound: np.ndarray
    area_mm2: np.ndarray  # (n,) — per platform, as in the scalar path

    @property
    def shape(self) -> Tuple[int, int]:
        return self.latency_s.shape  # type: ignore[return-value]

    def estimate(self, i: int, j: int) -> CostEstimate:
        """Materialize one entry as a scalar :class:`CostEstimate`
        (plain Python floats, as the scalar path produces)."""
        return CostEstimate(
            latency_s=float(self.latency_s[i, j]),
            energy_j=float(self.energy_j[i, j]),
            power_w=float(self.power_w[i, j]),
            area_mm2=float(self.area_mm2[i]),
            platform=self.platform_names[i],
            bound=BOUND_NAMES[int(self.bound[i, j])],
        )


def batch_estimate(platforms: PlatformSoA,
                   profiles: ProfileSoA,
                   arena: Optional[BatchArena] = None) -> BatchCost:
    """Price every (platform, profile) pair in one fused pass.

    Each ufunc call below is the broadcast form of the matching line in
    :meth:`AnalyticalPlatform.estimate`, in the same association order,
    so every entry is bit-identical to the scalar result.  Platform
    columns broadcast down rows (``[:, None]``), profile columns across
    them (``[None, :]``).

    With ``arena`` set, every intermediate and output lands in reusable
    :class:`~repro.engine.arena.BatchArena` buffers instead of fresh
    allocations — same operations, same operand order, so still
    bit-identical (the views are *borrowed*: valid until the next
    kernel call on the same arena).  Selects are written as fill +
    masked :func:`numpy.copyto` (pure element selection, no
    arithmetic), which is value-identical to :func:`numpy.where` and
    never reads the undefined buffer contents.
    """
    ws = Workspace(arena, "hw.batch.")
    shape = (len(platforms), len(profiles))
    m = len(profiles)
    lockstep = platforms.lockstep[:, None]

    # derate = where(lockstep, derating, 1.0)
    derate = ws.out("derate", shape)
    derate.fill(1.0)
    np.copyto(derate, profiles.derating[None, :], where=lockstep)

    # serial_ops = (flops + int_ops) * (1 - parallel_fraction)
    total_ops = ws.out("total_ops", (m,))
    np.add(profiles.flops, profiles.int_ops, out=total_ops)
    serial_frac = ws.out("serial_frac", (m,))
    np.subtract(1.0, profiles.parallel_fraction, out=serial_frac)
    serial_ops = ws.out("serial_ops", (m,))
    np.multiply(total_ops, serial_frac, out=serial_ops)
    parallel_flops = ws.out("parallel_flops", (m,))
    np.multiply(profiles.flops, profiles.parallel_fraction,
                out=parallel_flops)
    parallel_int = ws.out("parallel_int", (m,))
    np.multiply(profiles.int_ops, profiles.parallel_fraction,
                out=parallel_int)

    t_serial = ws.out("t_serial", shape)
    np.divide(serial_ops[None, :], platforms.scalar_flops[:, None],
              out=t_serial)
    # t_parallel = pf/(peak*derate) + pi/(int_throughput*derate)
    denom = ws.out("denom", shape)
    term = ws.out("term", shape)
    np.multiply(platforms.peak_flops[:, None], derate, out=denom)
    t_parallel = ws.out("t_parallel", shape)
    np.divide(parallel_flops[None, :], denom, out=t_parallel)
    np.multiply(platforms.int_throughput[:, None], derate, out=denom)
    np.divide(parallel_int[None, :], denom, out=term)
    np.add(t_parallel, term, out=t_parallel)
    t_compute = ws.out("t_compute", shape)
    np.add(t_serial, t_parallel, out=t_compute)

    onchip = ws.out("onchip", shape, np.bool_)
    np.less_equal(profiles.working_set_bytes[None, :],
                  platforms.onchip_bytes[:, None], out=onchip)
    # bandwidth = where(onchip, onchip_bw, offchip_bw)
    bandwidth = ws.out("bandwidth", shape)
    np.copyto(bandwidth, platforms.offchip_bw[:, None])
    np.copyto(bandwidth, platforms.onchip_bw[:, None], where=onchip)
    t_memory = ws.out("t_memory", shape)
    np.divide(profiles.total_bytes[None, :], bandwidth, out=t_memory)

    busy = ws.out("busy", shape)
    np.maximum(t_compute, t_memory, out=busy)
    latency = ws.out("latency", shape)
    np.add(platforms.launch_overhead_s[:, None], busy, out=latency)

    traffic_energy = ws.out("traffic_energy", shape)
    np.copyto(traffic_energy, platforms.energy_per_byte_offchip[:, None])
    np.copyto(traffic_energy, platforms.energy_per_byte_onchip[:, None],
              where=onchip)
    # energy = ((flops*e_flop + int_ops*e_int) + bytes*traffic) + static*lat
    energy = ws.out("energy", shape)
    np.multiply(profiles.flops[None, :],
                platforms.energy_per_flop[:, None], out=energy)
    np.multiply(profiles.int_ops[None, :],
                platforms.int_energy[:, None], out=term)
    np.add(energy, term, out=energy)
    np.multiply(profiles.total_bytes[None, :], traffic_energy, out=term)
    np.add(energy, term, out=energy)
    np.multiply(platforms.static_power_w[:, None], latency, out=term)
    np.add(energy, term, out=energy)

    # bound = where(t_memory >= t_compute, MEMORY,
    #               where(t_serial > t_parallel, SERIAL, COMPUTE))
    mask = ws.out("mask", shape, np.bool_)
    bound = ws.out("bound", shape, np.int8)
    bound.fill(_BOUND_COMPUTE)
    np.greater(t_serial, t_parallel, out=mask)
    np.copyto(bound, np.int8(_BOUND_SERIAL), where=mask)
    np.greater_equal(t_memory, t_compute, out=mask)
    np.copyto(bound, np.int8(_BOUND_MEMORY), where=mask)

    # power = energy / latency where latency > 0, else static power.
    power = ws.out("power", shape)
    np.copyto(power, platforms.static_power_w[:, None])
    np.greater(latency, 0.0, out=mask)
    np.divide(energy, latency, out=power, where=mask)

    meter = get_alloc_meter()
    if meter.enabled:
        # The full working set of this pass: intermediates + outputs.
        # (Exact accounting; one guarded call per population, not per
        # candidate, so the disabled cost is a single branch.)
        meter.add("hw.batch.batch_estimate",
                  derate, serial_ops, parallel_flops, parallel_int,
                  t_serial, t_parallel, t_compute, onchip, bandwidth,
                  t_memory, busy, latency, traffic_energy, energy,
                  bound, power)

    return BatchCost(
        platform_names=platforms.names,
        profile_names=profiles.names,
        latency_s=latency,
        energy_j=energy,
        power_w=power,
        bound=bound,
        area_mm2=platforms.area_mm2,
    )
