"""Scenario specs: whole CLI runs as declarative documents.

A scenario file is a spec of kind ``scenario`` holding exactly one run
section — ``suite``, ``mission``, ``fleet``, or ``dse`` — mirroring the
matching CLI subcommand::

    {"spec_version": 1, "kind": "scenario", "name": "uav-codesign",
     "dse": {"space": {"ref": "codesign"},
             "objective": {"ref": "suite_objective"},
             "strategy": "random", "budget": 8, "seed": 3}}

``repro run <file>`` executes one through the same code paths (and the
same evaluation-engine contexts) as the programmatic subcommands, so a
scenario reproduces a code-driven run exactly, cache keys included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.core.workload import Workload
from repro.dse.funnel import INNER_STRATEGIES, FunnelConfig, \
    PromotionGate
from repro.dse.space import DesignSpace
from repro.errors import ConfigurationError, SearchError, SpecError
from repro.hw.platform import Platform
from repro.spec import schema
from repro.spec.codec import Codec, from_spec, register_codec, to_spec
from repro.spec.codecs import (
    PlatformLike,
    decode_design_space,
    decode_platform,
    decode_workload,
)
from repro.spec.registry import OBJECTIVES, TIERS
from repro.system.fleet import FleetPerturbation
from repro.system.mission import MissionConfig

__all__ = ["Scenario", "SuiteScenario", "MissionScenario",
           "FleetScenario", "DseScenario", "DSE_STRATEGIES"]

#: Search strategies ``dse`` scenarios (and the CLI) accept.
DSE_STRATEGIES = ("grid", "random", "evolutionary", "surrogate",
                  "funnel")

#: One mission compute tier: (name, platform, mass_kg, power_w).
Tier = Tuple[str, Platform, float, float]


@dataclass
class SuiteScenario:
    """A benchmark-suite run: workloads priced across target platforms.

    Attributes:
        targets: Platforms (or SoCs) to price the suite on.
        reference: Target name speedups are normalized against.
        workloads: Suite rows; ``None`` means the standard suite.
        jobs: Process-pool width (1 = serial; results identical).
    """

    targets: Tuple[PlatformLike, ...]
    reference: str = "embedded-cpu"
    workloads: Optional[Tuple[Workload, ...]] = None
    jobs: int = 1


@dataclass
class MissionScenario:
    """A closed-loop mission sweep over a compute ladder.

    Attributes:
        config: The mission (world, endpoints, airframe, battery...).
        tiers: ``(name, platform, mass_kg, power_w)`` ladder rows.
        seed: Recorded in run provenance (the world already carries its
            own generation seed); purely informational.
    """

    config: MissionConfig
    tiers: Tuple[Tier, ...]
    seed: Optional[int] = None


@dataclass
class FleetScenario:
    """A Monte Carlo fleet study over a compute ladder
    (:class:`repro.system.fleet.FleetStudy`, declaratively).

    Attributes:
        config: Baseline mission scenario.
        tiers: ``(name, platform, mass_kg, power_w)`` ladder rows.
        trials: Monte Carlo trials per tier.
        seed: Perturbation RNG seed.
        chunk_size: Stream rollouts through the engine in windows of
            this many (``None`` = whole population at once; results
            identical either way).
        perturbation: Per-axis relative perturbation spreads.
    """

    config: MissionConfig
    tiers: Tuple[Tier, ...]
    trials: int = 64
    seed: int = 0
    chunk_size: Optional[int] = None
    perturbation: FleetPerturbation = field(
        default_factory=FleetPerturbation)


@dataclass
class DseScenario:
    """A design-space exploration run.

    Attributes:
        space: The space to search.
        objective: Registered objective name (see
            :data:`repro.spec.registry.OBJECTIVES`).
        strategy: One of :data:`DSE_STRATEGIES`.
        budget: Unique-candidate evaluation budget.
        seed: Search seed.
        jobs: Process-pool width for candidate pricing.
        chunk_size: Evaluate at most this many pending candidates per
            oracle pass (``None`` = all at once; results identical).
        funnel: Multi-fidelity funnel knobs (inner strategy, promotion
            gates); only meaningful — and only accepted — with
            ``strategy="funnel"``.  ``None`` means the defaults
            (:func:`repro.dse.funnel.default_gates`).
    """

    space: DesignSpace
    objective: str = "suite_objective"
    strategy: str = "surrogate"
    budget: int = 24
    seed: int = 0
    jobs: int = 1
    chunk_size: Optional[int] = None
    funnel: Optional[FunnelConfig] = None


@dataclass
class Scenario:
    """A named, runnable experiment description.

    Attributes:
        name: Human-readable scenario name (printed by ``repro run``).
        run: The run section; its type selects the execution path.
    """

    name: str
    run: Union[SuiteScenario, MissionScenario, FleetScenario,
               DseScenario]


# --------------------------------------------------------------------------
# Codec.
# --------------------------------------------------------------------------

def _positive_jobs(payload: Mapping[str, Any], path: str) -> int:
    jobs = schema.optional_int(payload, "jobs", path, 1)
    if jobs < 1:
        raise SpecError(
            f"{schema.child(path, 'jobs')}: must be >= 1, got {jobs}"
        )
    return jobs


def _optional_chunk_size(payload: Mapping[str, Any],
                         path: str) -> Optional[int]:
    chunk_size = schema.optional_int(payload, "chunk_size", path, None)
    if chunk_size is not None and chunk_size < 1:
        raise SpecError(
            f"{schema.child(path, 'chunk_size')}: must be >= 1,"
            f" got {chunk_size}"
        )
    return chunk_size


def _encode_suite(run: SuiteScenario) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "targets": [to_spec(t) for t in run.targets],
        "reference": run.reference,
        "jobs": run.jobs,
    }
    if run.workloads is not None:
        payload["workloads"] = [to_spec(w) for w in run.workloads]
    return payload


def _decode_suite(payload: Mapping[str, Any],
                  path: str) -> SuiteScenario:
    schema.check_keys(
        payload, ("targets", "reference", "workloads", "jobs"), path)
    targets_at = schema.child(path, "targets")
    items = schema.as_sequence(
        schema.get_field(payload, "targets", path), targets_at,
        min_items=1)
    targets = tuple(
        decode_platform(item, schema.item(targets_at, index))
        for index, item in enumerate(items))
    names = [t.name for t in targets]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise SpecError(
            f"{targets_at}: duplicate target name(s) {duplicates}"
        )
    reference = "embedded-cpu"
    if "reference" in payload:
        reference = schema.as_str(payload["reference"],
                                  schema.child(path, "reference"))
    if reference not in names:
        raise SpecError(
            f"{schema.child(path, 'reference')}: {reference!r} is not"
            f" a target name; targets: {names}"
        )
    workloads = None
    if "workloads" in payload:
        at = schema.child(path, "workloads")
        rows = schema.as_sequence(payload["workloads"], at,
                                  min_items=1)
        workloads = tuple(
            decode_workload(item, schema.item(at, index))
            for index, item in enumerate(rows))
    return SuiteScenario(targets=targets, reference=reference,
                         workloads=workloads,
                         jobs=_positive_jobs(payload, path))


def _encode_mission(run: MissionScenario) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "config": to_spec(run.config),
        "tiers": [
            {"name": name, "platform": to_spec(platform),
             "mass_kg": mass_kg, "power_w": power_w}
            for name, platform, mass_kg, power_w in run.tiers
        ],
    }
    if run.seed is not None:
        payload["seed"] = run.seed
    return payload


def _decode_tier(item: Any, path: str) -> Tier:
    payload = schema.require_mapping(item, path)
    schema.check_keys(
        payload, ("name", "platform", "mass_kg", "power_w"), path)
    name = schema.as_str(schema.get_field(payload, "name", path),
                         schema.child(path, "name"))
    platform = decode_platform(
        schema.get_field(payload, "platform", path),
        schema.child(path, "platform"), allow_soc=False)
    mass_kg = schema.as_float(
        schema.get_field(payload, "mass_kg", path),
        schema.child(path, "mass_kg"))
    power_w = schema.as_float(
        schema.get_field(payload, "power_w", path),
        schema.child(path, "power_w"))
    return (name, platform, mass_kg, power_w)


def _decode_mission(payload: Mapping[str, Any],
                    path: str) -> MissionScenario:
    schema.check_keys(payload, ("config", "tiers", "seed"), path)
    return MissionScenario(
        config=_decode_mission_config(payload, path),
        tiers=_decode_tiers(payload, path),
        seed=schema.optional_int(payload, "seed", path, None))


_PERTURBATION_KEYS = ("battery_capacity", "payload_mass",
                      "sensor_rate", "workload_scale")


def _decode_tiers(payload: Mapping[str, Any], path: str
                  ) -> Tuple[Tier, ...]:
    """Tier rows, or a ``{"ref": ...}`` ladder from :data:`TIERS`
    (shared by the ``mission`` and ``fleet`` sections)."""
    tiers_at = schema.child(path, "tiers")
    tiers_spec = schema.get_field(payload, "tiers", path)
    if isinstance(tiers_spec, Mapping) and "ref" in tiers_spec:
        schema.check_keys(tiers_spec, ("ref",), tiers_at)
        ladder = schema.as_str(tiers_spec["ref"],
                               schema.child(tiers_at, "ref"))
        return tuple(TIERS.build(ladder, tiers_at))
    items = schema.as_sequence(tiers_spec, tiers_at, min_items=1)
    return tuple(_decode_tier(item, schema.item(tiers_at, index))
                 for index, item in enumerate(items))


def _decode_mission_config(payload: Mapping[str, Any],
                           path: str) -> MissionConfig:
    config = from_spec(schema.get_field(payload, "config", path),
                       schema.child(path, "config"))
    if not isinstance(config, MissionConfig):
        raise SpecError(
            f"{schema.child(path, 'config')}: expected a mission spec"
        )
    return config


def _encode_fleet(run: FleetScenario) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "config": to_spec(run.config),
        "tiers": [
            {"name": name, "platform": to_spec(platform),
             "mass_kg": mass_kg, "power_w": power_w}
            for name, platform, mass_kg, power_w in run.tiers
        ],
        "trials": run.trials,
        "seed": run.seed,
        "perturbation": {
            key: getattr(run.perturbation, key)
            for key in _PERTURBATION_KEYS
        },
    }
    if run.chunk_size is not None:
        payload["chunk_size"] = run.chunk_size
    return payload


def _decode_perturbation(value: Any, path: str) -> FleetPerturbation:
    payload = schema.require_mapping(value, path)
    schema.check_keys(payload, _PERTURBATION_KEYS, path)
    kwargs = {}
    for key in _PERTURBATION_KEYS:
        if key in payload:
            kwargs[key] = schema.as_float(payload[key],
                                          schema.child(path, key))
    try:
        return FleetPerturbation(**kwargs)
    except ConfigurationError as error:
        raise SpecError(f"{path}: {error}") from error


def _decode_fleet(payload: Mapping[str, Any],
                  path: str) -> FleetScenario:
    schema.check_keys(
        payload,
        ("config", "tiers", "trials", "seed", "jobs", "chunk_size",
         "perturbation"),
        path)
    config = _decode_mission_config(payload, path)
    tiers = _decode_tiers(payload, path)
    trials = schema.optional_int(payload, "trials", path, 64)
    if trials < 1:
        raise SpecError(
            f"{schema.child(path, 'trials')}: must be >= 1,"
            f" got {trials}"
        )
    # Studies run in-process; "jobs": 1 is still accepted so older
    # scenario files load.
    jobs = schema.optional_int(payload, "jobs", path, 1)
    if jobs != 1:
        raise SpecError(
            f"{schema.child(path, 'jobs')}: fleet studies run"
            f" in-process, so only 1 is accepted, got {jobs}"
        )
    perturbation = FleetPerturbation()
    if "perturbation" in payload:
        perturbation = _decode_perturbation(
            payload["perturbation"], schema.child(path, "perturbation"))
    return FleetScenario(
        config=config, tiers=tiers, trials=trials,
        seed=schema.optional_int(payload, "seed", path, 0),
        chunk_size=_optional_chunk_size(payload, path),
        perturbation=perturbation)


def _encode_gate(gate: PromotionGate) -> Dict[str, Any]:
    payload: Dict[str, Any] = {}
    if gate.top_fraction is not None:
        payload["top_fraction"] = gate.top_fraction
    if gate.threshold is not None:
        payload["threshold"] = gate.threshold
    if gate.budget is not None:
        payload["budget"] = gate.budget
    return payload


def _decode_gate(item: Any, path: str) -> PromotionGate:
    payload = schema.require_mapping(item, path)
    schema.check_keys(
        payload, ("top_fraction", "threshold", "budget"), path)
    kwargs: Dict[str, Any] = {}
    if "top_fraction" in payload:
        kwargs["top_fraction"] = schema.as_float(
            payload["top_fraction"],
            schema.child(path, "top_fraction"))
    if "threshold" in payload:
        kwargs["threshold"] = schema.as_float(
            payload["threshold"], schema.child(path, "threshold"))
    budget = schema.optional_int(payload, "budget", path, None)
    if budget is not None:
        kwargs["budget"] = budget
    try:
        return PromotionGate(**kwargs)
    except SearchError as error:
        raise SpecError(f"{path}: {error}") from error


def _decode_funnel(value: Any, path: str) -> FunnelConfig:
    payload = schema.require_mapping(value, path)
    schema.check_keys(payload, ("inner", "gates"), path)
    inner = "random"
    if "inner" in payload:
        at = schema.child(path, "inner")
        inner = schema.as_str(payload["inner"], at)
        if inner not in INNER_STRATEGIES:
            raise SpecError(
                f"{at}: expected one of {sorted(INNER_STRATEGIES)},"
                f" got {inner!r}")
    gates = None
    if "gates" in payload:
        at = schema.child(path, "gates")
        items = schema.as_sequence(payload["gates"], at, min_items=1)
        gates = tuple(_decode_gate(item, schema.item(at, index))
                      for index, item in enumerate(items))
    try:
        return FunnelConfig(inner=inner, gates=gates)
    except SearchError as error:
        raise SpecError(f"{path}: {error}") from error


def _encode_dse(run: DseScenario) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "space": to_spec(run.space),
        "objective": {"ref": run.objective},
        "strategy": run.strategy,
        "budget": run.budget,
        "seed": run.seed,
        "jobs": run.jobs,
    }
    if run.chunk_size is not None:
        payload["chunk_size"] = run.chunk_size
    if run.funnel is not None:
        section: Dict[str, Any] = {"inner": run.funnel.inner}
        if run.funnel.gates is not None:
            section["gates"] = [_encode_gate(gate)
                                for gate in run.funnel.gates]
        payload["funnel"] = section
    return payload


def _decode_dse(payload: Mapping[str, Any], path: str) -> DseScenario:
    schema.check_keys(
        payload,
        ("space", "objective", "strategy", "budget", "seed", "jobs",
         "chunk_size", "funnel"),
        path)
    space = decode_design_space(
        schema.get_field(payload, "space", path),
        schema.child(path, "space"))
    objective = "suite_objective"
    if "objective" in payload:
        at = schema.child(path, "objective")
        value = payload["objective"]
        if isinstance(value, str):
            objective = value
        else:
            mapping = schema.require_mapping(value, at)
            schema.check_keys(mapping, ("ref",), at)
            objective = schema.as_str(
                schema.get_field(mapping, "ref", at),
                schema.child(at, "ref"))
        OBJECTIVES.entry(objective, at)  # must resolve
    strategy = "surrogate"
    if "strategy" in payload:
        at = schema.child(path, "strategy")
        strategy = schema.as_str(payload["strategy"], at)
        if strategy not in DSE_STRATEGIES:
            raise SpecError(
                f"{at}: expected one of {list(DSE_STRATEGIES)},"
                f" got {strategy!r}"
            )
    budget = schema.optional_int(payload, "budget", path, 24)
    if budget < 1:
        raise SpecError(
            f"{schema.child(path, 'budget')}: must be >= 1,"
            f" got {budget}"
        )
    funnel = None
    if "funnel" in payload:
        at = schema.child(path, "funnel")
        if strategy != "funnel":
            raise SpecError(
                f"{at}: only valid with strategy 'funnel'"
                f" (got strategy {strategy!r})"
            )
        funnel = _decode_funnel(payload["funnel"], at)
    return DseScenario(
        space=space, objective=objective, strategy=strategy,
        budget=budget,
        seed=schema.optional_int(payload, "seed", path, 0),
        jobs=_positive_jobs(payload, path),
        chunk_size=_optional_chunk_size(payload, path),
        funnel=funnel)


_SECTIONS = {
    "suite": (SuiteScenario, _encode_suite, _decode_suite),
    "mission": (MissionScenario, _encode_mission, _decode_mission),
    "fleet": (FleetScenario, _encode_fleet, _decode_fleet),
    "dse": (DseScenario, _encode_dse, _decode_dse),
}


def _encode_scenario(scenario: Scenario) -> Dict[str, Any]:
    for section, (cls, encode, _) in _SECTIONS.items():
        if isinstance(scenario.run, cls):
            return {"name": scenario.name,
                    section: encode(scenario.run)}
    raise SpecError(
        f"scenario {scenario.name!r} has an unsupported run type"
        f" {type(scenario.run).__name__}"
    )


def _decode_scenario(payload: Mapping[str, Any],
                     path: str) -> Scenario:
    schema.check_keys(payload, ("name",) + tuple(_SECTIONS), path)
    name = schema.as_str(schema.get_field(payload, "name", path),
                         schema.child(path, "name"))
    section = schema.require_one_of(payload, _SECTIONS, path)
    at = schema.child(path, section)
    _, _, decode = _SECTIONS[section]
    run = decode(schema.require_mapping(payload[section], at), at)
    return Scenario(name=name, run=run)


register_codec(Codec("scenario", Scenario, _encode_scenario,
                     _decode_scenario))
