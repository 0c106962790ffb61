"""Property-based tests for core profile/characterization invariants."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.characterize import amdahl_speedup, max_amdahl_speedup
from repro.core.profile import DivergenceClass, WorkloadProfile

_counts = st.floats(min_value=0.0, max_value=1e15, allow_nan=False)
_fractions = st.floats(min_value=0.0, max_value=1.0)
_divergence = st.sampled_from(list(DivergenceClass))


def profiles():
    return st.builds(
        WorkloadProfile,
        name=st.just("p"),
        flops=_counts,
        int_ops=_counts,
        bytes_read=_counts,
        bytes_written=_counts,
        working_set_bytes=_counts,
        parallel_fraction=_fractions,
        divergence=_divergence,
    )


@settings(max_examples=60, deadline=None)
@given(profiles(), profiles())
def test_combined_conserves_counts(a, b):
    c = a.combined(b)
    assert c.flops == a.flops + b.flops
    assert math.isclose(c.total_bytes, a.total_bytes + b.total_bytes,
                        rel_tol=1e-12, abs_tol=1e-12)
    assert c.working_set_bytes == max(a.working_set_bytes,
                                      b.working_set_bytes)


def _tiny(parallel_fraction):
    """A profile whose only op count is the smallest subnormal float."""
    return WorkloadProfile(name="p", flops=5e-324, int_ops=0.0,
                           bytes_read=0.0, bytes_written=0.0,
                           working_set_bytes=0.0,
                           parallel_fraction=parallel_fraction,
                           divergence=DivergenceClass.NONE)


@settings(max_examples=60, deadline=None)
@given(profiles(), profiles())
@example(_tiny(0.4), _tiny(0.4))
def test_combined_parallel_fraction_between_inputs(a, b):
    c = a.combined(b)
    lo = min(a.parallel_fraction, b.parallel_fraction)
    hi = max(a.parallel_fraction, b.parallel_fraction)
    assert lo - 1e-12 <= c.parallel_fraction <= hi + 1e-12


@settings(max_examples=60, deadline=None)
@given(profiles(), st.floats(min_value=0.0, max_value=1e6))
def test_scaling_is_linear(p, factor):
    scaled = p.scaled(factor)
    assert scaled.flops == p.flops * factor
    assert math.isclose(scaled.total_bytes, p.total_bytes * factor,
                        rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(profiles())
def test_intensity_nonnegative(p):
    assert p.arithmetic_intensity >= 0.0


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1.0, max_value=1e9))
def test_amdahl_bounds(fraction, speedup):
    result = amdahl_speedup(fraction, speedup)
    # End-to-end speedup never exceeds the kernel speedup or the
    # fraction ceiling, and never goes below 1 for speedup >= 1.
    assert 1.0 - 1e-12 <= result
    # Tolerances are relative: at fraction == 1 the reciprocal
    # round-trip 1/(1/s) is off by ~1 ulp, which exceeds any absolute
    # epsilon once s is large (hypothesis found s ~ 1.3e8).
    assert result <= speedup * (1.0 + 1e-12) + 1e-9
    assert result <= max_amdahl_speedup(fraction) * (1.0 + 1e-12) + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.999999),
       st.floats(min_value=0.0, max_value=1e-9))
def test_amdahl_slowdown_allowed(fraction, epsilon):
    # Kernel *slowdowns* (speedup < 1) make things worse, never better.
    result = amdahl_speedup(fraction, 0.5 + epsilon)
    assert result <= 1.0 + 1e-12
