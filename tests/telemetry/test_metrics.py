"""Unit tests for counters, gauges, and the streaming histogram."""

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    Counter,
    Gauge,
    MetricsRegistry,
    StreamingHistogram,
)


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_decrease(self):
        with pytest.raises(TelemetryError):
            Counter("c").inc(-1)


class TestGauge:
    def test_tracks_watermarks(self):
        gauge = Gauge("g")
        for value in (3.0, -1.0, 7.0):
            gauge.set(value)
        snap = gauge.snapshot()
        assert snap["value"] == 7.0
        assert snap["min"] == -1.0
        assert snap["max"] == 7.0
        assert snap["updates"] == 3

    def test_empty_snapshot_is_zeroed(self):
        snap = Gauge("g").snapshot()
        assert snap["min"] == 0.0 and snap["max"] == 0.0


class TestStreamingHistogram:
    def test_quantiles_match_sorted_samples(self):
        """Sketch quantiles vs. exact sorted-sample ground truth on a
        fixed seed: relative error must stay within the bucket bound."""
        rng = np.random.default_rng(1234)
        samples = rng.lognormal(mean=-4.0, sigma=1.2, size=20_000)
        histogram = StreamingHistogram("lat")
        for value in samples:
            histogram.record(float(value))
        ordered = np.sort(samples)
        for q in (0.50, 0.90, 0.99, 0.999):
            exact = float(ordered[int(q * (len(ordered) - 1))])
            sketch = histogram.quantile(q)
            assert sketch == pytest.approx(exact, rel=0.02), q

    def test_bounded_memory(self):
        rng = np.random.default_rng(7)
        histogram = StreamingHistogram("lat")
        for value in rng.uniform(1e-6, 10.0, size=50_000):
            histogram.record(float(value))
        # ~16 decades at 1% growth is < 4000 buckets, samples >> that.
        assert len(histogram._buckets) < 4000
        assert histogram.count == 50_000

    def test_min_max_mean_exact(self):
        histogram = StreamingHistogram("h")
        for value in (1.0, 2.0, 3.0):
            histogram.record(value)
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean() == pytest.approx(2.0)

    def test_empty_histogram_quantiles_are_zero(self):
        """Zero samples: every quantile reads 0.0 and the summary is
        well-formed (no division by the empty count)."""
        histogram = StreamingHistogram("h")
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == 0.0
        assert histogram.count == 0
        assert histogram.mean() == 0.0
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["p50"] == 0.0 and summary["p999"] == 0.0

    def test_single_sample_quantiles_collapse_to_it(self):
        """One sample: every quantile lands in that sample's bucket
        (within the sketch's relative-error bound)."""
        histogram = StreamingHistogram("h")
        histogram.record(0.25)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == \
                pytest.approx(0.25, rel=0.02), q
        assert histogram.min == histogram.max == 0.25
        assert histogram.mean() == pytest.approx(0.25)
        assert histogram.summary()["count"] == 1

    def test_underflow_and_empty(self):
        histogram = StreamingHistogram("h", min_value=1e-3)
        assert histogram.quantile(0.5) == 0.0
        histogram.record(0.0)
        histogram.record(-5.0)
        assert histogram.quantile(0.5) == 1e-3

    # Dyadic values keep every running total exact, so totals compare
    # with ==; 0.0 lands in the underflow bucket.
    @pytest.mark.parametrize("value", [0.0, 2.0 ** -30, 0.375, 12.5])
    def test_counted_record_equals_repeated_records(self, value):
        counted = StreamingHistogram("counted")
        single = StreamingHistogram("single")
        for histogram in (counted, single):
            histogram.record(0.25)
        counted.record(value, count=8)
        for _ in range(8):
            single.record(value)
        for field in ("count", "total", "min", "max"):
            assert getattr(counted, field) == getattr(single, field)
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0):
            assert counted.quantile(q) == single.quantile(q), q

    def test_summary_keys(self):
        histogram = StreamingHistogram("h")
        histogram.record(1.0)
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "min", "max",
                                "p50", "p90", "p99", "p999"}

    def test_rejects_bad_parameters(self):
        with pytest.raises(TelemetryError):
            StreamingHistogram("h", growth=1.0)
        with pytest.raises(TelemetryError):
            StreamingHistogram("h", min_value=0.0)
        with pytest.raises(TelemetryError):
            StreamingHistogram("h").quantile(1.5)
        with pytest.raises(TelemetryError):
            StreamingHistogram("h").record(1.0, count=0)


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("b") is registry.histogram("b")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TelemetryError):
            registry.gauge("a")

    def test_snapshot_covers_all_metrics(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat").record(0.5)
        snap = registry.snapshot()
        assert snap["jobs"]["value"] == 3
        assert snap["depth"]["value"] == 2
        assert snap["lat"]["count"] == 1
        assert registry.names() == ["depth", "jobs", "lat"]

    def test_value_reads_without_registering(self):
        registry = MetricsRegistry()
        assert registry.value("absent") == 0.0
        registry.counter("jobs").inc(3)
        registry.gauge("depth").set(2)
        assert registry.value("jobs") == 3
        assert registry.value("depth") == 2
        assert registry.names() == ["depth", "jobs"]

    def test_grouped_splits_counters_at_the_last_dot(self):
        registry = MetricsRegistry()
        registry.counter("t.a.hits").inc(2)
        registry.counter("t.a.misses").inc()
        registry.counter("t.b.c.hits").inc()
        registry.histogram("t.a.wall_s").record(0.5)
        registry.counter("other.a.hits").inc()
        assert registry.grouped("t.") == {
            "a": {"hits": 2, "misses": 1}, "b.c": {"hits": 1}}
