"""Property-based tests for system-level invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import WorkloadProfile
from repro.core.workload import linear_pipeline
from repro.system.io_model import IoModel
from repro.system.pipeline import PipelineSimulation
from repro.system.robot import BatteryModel, UavPhysics
from repro.system.scheduler import (
    PeriodicTask,
    SchedulerPolicy,
    response_time_analysis,
    simulate_scheduler,
)

_service = st.floats(min_value=0.001, max_value=0.08)


@settings(max_examples=20, deadline=None)
@given(st.lists(_service, min_size=1, max_size=4),
       st.floats(min_value=2.0, max_value=15.0))
def test_pipeline_conservation(services, rate_hz):
    """Emitted samples = completed + dropped + still in flight."""
    profiles = [WorkloadProfile(name=f"s{i}", flops=1e6)
                for i in range(len(services))]
    graph = linear_pipeline("p", profiles, rate_hz=rate_hz,
                            output_bytes=1e3)
    service_map = {s.name: services[i]
                   for i, s in enumerate(graph.stages)}
    sim = PipelineSimulation(graph, service_map, io=IoModel())
    result = sim.run(4.0)
    dropped = sum(s.dropped for s in result.stage_stats.values())
    assert result.samples_completed + dropped \
        <= result.samples_emitted
    # In-flight items are bounded by the total queue capacity + one
    # in service per stage.
    in_flight = (result.samples_emitted - result.samples_completed
                 - dropped)
    assert 0 <= in_flight <= len(services) * (sim.queue_capacity + 1)
    # Latencies are all positive and at least the service-time sum.
    floor = sum(service_map.values())
    assert all(lat >= floor - 1e-9
               for lat in result.end_to_end_latencies)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=0.01, max_value=0.1),   # period
    st.floats(min_value=0.05, max_value=0.5),   # utilization share
), min_size=1, max_size=3),
    st.sampled_from(list(SchedulerPolicy)))
def test_scheduler_accounting_invariants(specs, policy):
    tasks = [
        PeriodicTask(f"t{i}", period_s=period,
                     wcet_s=max(1e-3, period * share), priority=i)
        for i, (period, share) in enumerate(specs)
    ]
    result = simulate_scheduler(tasks, policy, duration_s=0.5,
                                time_step_s=1e-4)
    assert result.jobs_completed <= result.jobs_released
    assert result.deadline_misses <= result.jobs_released
    assert sum(result.per_task_misses.values()) \
        == result.deadline_misses
    assert 0.0 <= result.miss_rate <= 1.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=0.01, max_value=0.2),
    st.floats(min_value=0.01, max_value=0.25),
), min_size=1, max_size=4))
def test_rta_response_at_least_wcet(specs):
    tasks = [
        PeriodicTask(f"t{i}", period_s=period,
                     wcet_s=max(1e-4, period * share), priority=i)
        for i, (period, share) in enumerate(specs)
    ]
    response = response_time_analysis(tasks)
    for task in tasks:
        assert response[task.name] >= task.wcet_s - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.5, max_value=5.0),
       st.floats(min_value=0.5, max_value=5.0))
def test_hover_power_monotone_in_mass(mass_a, mass_b):
    uav = UavPhysics()
    if mass_a < mass_b:
        assert uav.hover_power_w(mass_a) < uav.hover_power_w(mass_b)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=1.0, max_value=30.0))
def test_safe_speed_monotone_in_latency(lat_a, lat_b, sensing):
    uav = UavPhysics(max_speed_m_s=100.0)
    speed_a = uav.safe_speed_m_s(sensing, lat_a)
    speed_b = uav.safe_speed_m_s(sensing, lat_b)
    if lat_a < lat_b:
        assert speed_a >= speed_b - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=50.0))
def test_flight_time_monotone_in_payload(extra_mass, extra_power):
    uav = UavPhysics()
    battery = BatteryModel()
    base = uav.flight_time_s(battery, 0.0, 0.0)
    loaded = uav.flight_time_s(battery, extra_mass, extra_power)
    assert loaded <= base + 1e-9


_airframes = st.builds(
    UavPhysics,
    frame_mass_kg=st.floats(min_value=1e-3, max_value=50.0),
    rotor_disk_area_m2=st.floats(min_value=1e-3, max_value=10.0),
    figure_of_merit=st.floats(min_value=0.05, max_value=1.0),
    avionics_power_w=st.floats(min_value=0.0, max_value=100.0))


@settings(max_examples=60, deadline=None)
@given(_airframes,
       st.lists(st.floats(min_value=1e-6, max_value=1e6), max_size=64))
def test_hover_power_column_equals_scalar_bit_for_bit(uav, masses):
    """The column form rounds exactly like one scalar call per mass
    (``x ** 1.5`` stays CPython's pow; the rest is column arithmetic
    in the scalar's association order)."""
    column = uav.hover_power_column(np.array(masses, dtype=float))
    assert column.tolist() == [uav.hover_power_w(m) for m in masses]
