"""Property-based scalar-equivalence contract for the fleet engine.

:func:`repro.system.fleet.run_fleet` claims to be a *vectorization* of
:func:`repro.system.mission.run_mission`, not an approximation — so the
property is strict dataclass equality of every :class:`MissionResult`
field across randomly drawn mission parameters: battery capacities that
die mid-course or never, timeouts that cut missions short or land
exactly on a step boundary, sensor rates, workload scales, payload
masses, time steps, and lap counts, flown on every tier of the catalog
ladder plus a non-SoA-priceable platform that forces the scalar pricing
fallback.

Planning is hoisted deliberately (the contract is about simulation, not
search): worlds and courses are fixed per lap count and come from the
course store through one identity memo, so hypothesis explores the
simulation parameter space densely instead of re-running A* per
example.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.batch import is_soa_priceable
from repro.hw.catalog import uav_compute_tiers
from repro.hw.platform import AnalyticalPlatform, PlatformConfig
from repro.kernels.planning import CircleWorld
from repro.system.fleet import FleetRollout, ensure_course, run_fleet
from repro.system.mission import MissionConfig, run_mission
from repro.telemetry import Tracer, use_tracer

_WORLD = CircleWorld.random(dim=2, n_obstacles=12, extent=30.0,
                            radius_range=(1.0, 2.0), seed=9,
                            keep_corners_free=3.0)
_BASE = MissionConfig(world=_WORLD, start=np.array([1.0, 1.0]),
                      goal=np.array([28.0, 28.0]))
_TIERS = uav_compute_tiers()


class _FallbackPlatform(AnalyticalPlatform):
    """Same pricing as its parent, but the override defeats the SoA
    gate — exercising the engine's scalar-estimate path."""

    def estimate(self, profile):
        return super().estimate(profile)


_FALLBACK = _FallbackPlatform(PlatformConfig(
    name="prop-fallback", peak_flops=1e12, scalar_flops=4e9,
    onchip_bytes=4e6, onchip_bw=5e11, offchip_bw=5e10,
    static_power_w=8.0))
assert not is_soa_priceable(_FALLBACK)

#: (platform, module mass, module power) candidates: the whole ladder
#: plus the fallback.
_MODULES = [(platform, mass, power)
            for _name, platform, mass, power in _TIERS]
_MODULES.append((_FALLBACK, 0.25, 14.0))

#: Shared across examples so each lap count plans exactly once.
_COURSES = {}

_capacity_wh = st.one_of(
    st.floats(min_value=0.05, max_value=200.0, allow_nan=False),
    st.sampled_from([0.5, 5.0, 50.0]),
)
_max_duration = st.one_of(
    st.floats(min_value=0.5, max_value=7200.0, allow_nan=False),
    # exact multiples of the dt grid, where tie precedence bites
    st.sampled_from([5.0, 60.0, 0.05]),
)
_scenario = st.fixed_dictionaries({
    "capacity_wh": _capacity_wh,
    "max_duration_s": _max_duration,
    "time_step_s": st.sampled_from([0.01, 0.05, 0.2, 1.0]),
    "sensor_rate_hz": st.floats(min_value=1.0, max_value=120.0,
                                allow_nan=False),
    "workload_scale": st.floats(min_value=0.1, max_value=4.0,
                                allow_nan=False),
    "mass_factor": st.floats(min_value=0.5, max_value=2.0,
                             allow_nan=False),
    "laps": st.sampled_from([1, 2, 5]),
    "module": st.integers(min_value=0, max_value=len(_MODULES) - 1),
})


def _config_for(params) -> MissionConfig:
    return dataclasses.replace(
        _BASE,
        battery=dataclasses.replace(_BASE.battery,
                                    capacity_wh=params["capacity_wh"]),
        max_duration_s=params["max_duration_s"],
        time_step_s=params["time_step_s"],
        sensor_rate_hz=params["sensor_rate_hz"],
        frame_profile=_BASE.frame_profile.scaled(
            params["workload_scale"]),
        laps=params["laps"],
    )


@given(params=_scenario)
@settings(max_examples=150, deadline=None)
def test_batch_equals_scalar_field_for_field(params):
    config = _config_for(params)
    platform, mass, power = _MODULES[params["module"]]
    rollout = FleetRollout(name="prop", config=config,
                           platform=platform,
                           compute_mass_kg=mass * params["mass_factor"],
                           compute_power_w=power)
    course = ensure_course(config, _COURSES)
    fleet = run_fleet([rollout])
    scalar = run_mission(config, platform, rollout.compute_mass_kg,
                         power, course=course)
    batch = fleet.results[0]
    assert batch == scalar, [
        (f.name, getattr(scalar, f.name), getattr(batch, f.name))
        for f in dataclasses.fields(scalar)
        if getattr(scalar, f.name) != getattr(batch, f.name)]
    assert fleet.batch_priced + fleet.scalar_fallback == 1
    assert fleet.scalar_fallback == (
        0 if is_soa_priceable(platform) else 1)


@given(params=st.lists(_scenario, min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_mixed_population_equals_scalar(params):
    """Heterogeneous populations — mixed tiers, dts, batteries, and
    priceability — must still match rollout-for-rollout, in order."""
    rollouts = []
    for i, p in enumerate(params):
        platform, mass, power = _MODULES[p["module"]]
        rollouts.append(FleetRollout(
            name=f"prop-{i}", config=_config_for(p), platform=platform,
            compute_mass_kg=mass * p["mass_factor"],
            compute_power_w=power))
    fleet = run_fleet(rollouts)
    for rollout, batch in zip(rollouts, fleet.results):
        scalar = run_mission(
            rollout.config, rollout.platform, rollout.compute_mass_kg,
            rollout.compute_power_w,
            course=ensure_course(rollout.config, _COURSES))
        assert batch == scalar
    assert fleet.batch_priced + fleet.scalar_fallback == len(rollouts)


_HEAVY_UAV = dataclasses.replace(_BASE.uav, rotor_disk_area_m2=0.05,
                                 avionics_power_w=7.0)
_PICK = st.tuples(st.integers(min_value=0, max_value=2),
                  st.integers(min_value=0, max_value=len(_MODULES) - 1),
                  st.floats(min_value=0.5, max_value=2.0, allow_nan=False))
_A = {"capacity_wh": 5.0, "max_duration_s": 60.0, "time_step_s": 0.05,
      "sensor_rate_hz": 30.0, "workload_scale": 1.0, "mass_factor": 1.0,
      "laps": 1, "module": 0}
_B = dict(_A, capacity_wh=50.0, laps=2)


def _plan_identities(tracer):
    return sum(span.args["planned"] + span.args["reused"]
               for span in tracer.spans if span.name == "fleet.plan")


@given(scenarios=st.lists(_scenario, min_size=1, max_size=3),
       variants=st.lists(st.sampled_from(["base", "heavy", "start"]),
                         min_size=3, max_size=3),
       picks=st.lists(_PICK, min_size=1, max_size=12),
       chunk_size=st.integers(min_value=1, max_value=13))
@example(scenarios=[_A, _B], variants=["base", "heavy", "base"],
         picks=[(0, 0, 1.0), (1, len(_MODULES) - 1, 1.0), (0, 2, 1.5),
                (1, 0, 0.5)], chunk_size=3)
@settings(max_examples=40, deadline=None)
def test_rollout_list_adapter(scenarios, variants, picks, chunk_size):
    """A rollout list is adapted once into the engine's population
    form: configs repeated out of order, shared and scalar-fallback
    platforms and mixed airframes fly exactly as ``run_mission``, at
    any ``chunk_size``, and the plan asks the course store once per
    distinct ``(world, start, goal, radius, laps)`` identity."""
    configs = []
    for params, variant in zip(scenarios, variants):
        config = _config_for(params)
        if variant == "heavy":
            config = dataclasses.replace(config, uav=_HEAVY_UAV)
        elif variant == "start":
            # An equal start array the identity memo tells apart.
            config = dataclasses.replace(config, start=_BASE.start.copy())
        configs.append(config)
    rollouts = []
    for i, (which, module, mass_factor) in enumerate(picks):
        platform, mass, power = _MODULES[module]
        rollouts.append(FleetRollout(
            name=f"prop-{i}", config=configs[which % len(configs)],
            platform=platform, compute_mass_kg=mass * mass_factor,
            compute_power_w=power))
    identities = {(id(r.config.world), id(r.config.start),
                   id(r.config.goal), r.config.robot_radius_m,
                   r.config.laps) for r in rollouts}
    runs = []
    for size in (None, chunk_size):
        tracer = Tracer()
        with use_tracer(tracer):
            runs.append(run_fleet(rollouts, chunk_size=size))
        assert _plan_identities(tracer) == len(identities)
    whole, chunked = runs
    assert chunked.results == whole.results
    assert (chunked.batch_priced, chunked.scalar_fallback,
            chunked.alloc_bytes) == (whole.batch_priced,
                                     whole.scalar_fallback,
                                     whole.alloc_bytes)
    assert whole.scalar_fallback == sum(
        not is_soa_priceable(r.platform) for r in rollouts)
    for rollout, batch in zip(rollouts, whole.results):
        scalar = run_mission(
            rollout.config, rollout.platform, rollout.compute_mass_kg,
            rollout.compute_power_w,
            course=ensure_course(rollout.config, _COURSES))
        assert batch == scalar
