"""Counters, gauges, and streaming histograms.

The histogram is HDR-style: geometric buckets with a fixed growth factor,
so quantiles come from cumulative bucket counts in O(buckets) memory no
matter how many samples are recorded.  With the default 1% bucket growth
the relative quantile error is bounded by ~0.5% (half a bucket), which is
far tighter than the run-to-run noise of any simulation it measures.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.errors import TelemetryError

__all__ = ["Counter", "Gauge", "MetricsRegistry", "StreamingHistogram"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r}: cannot decrease (got {amount})"
            )
        self.value += amount

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value}


class Gauge:
    """A point-in-time value, with min/max watermarks."""

    __slots__ = ("name", "value", "min", "max", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.min = min(self.min, self.value)
        self.max = max(self.max, self.value)
        self.updates += 1

    def snapshot(self) -> Dict[str, float]:
        return {
            "value": self.value,
            "min": self.min if self.updates else 0.0,
            "max": self.max if self.updates else 0.0,
            "updates": self.updates,
        }


class StreamingHistogram:
    """Quantile sketch over positive-ish values in bounded memory.

    Values are assigned to geometric buckets ``[v0 * g^i, v0 * g^(i+1))``;
    a quantile query walks the cumulative counts and returns the
    geometric midpoint of the target bucket.  Values at or below
    ``min_value`` (including zero and negatives) land in a dedicated
    underflow bucket reported as ``min_value``.

    Args:
        name: Metric name.
        growth: Bucket growth factor ``g`` (> 1); 1.01 = 1% buckets.
        min_value: Resolution floor; values below it are clamped.
    """

    __slots__ = ("name", "growth", "min_value", "_log_growth",
                 "_buckets", "_underflow", "count", "total",
                 "min", "max")

    def __init__(self, name: str, growth: float = 1.01,
                 min_value: float = 1e-12):
        if growth <= 1.0:
            raise TelemetryError(
                f"histogram {name!r}: growth must be > 1 (got {growth})"
            )
        if min_value <= 0.0:
            raise TelemetryError(
                f"histogram {name!r}: min_value must be > 0"
            )
        self.name = name
        self.growth = growth
        self.min_value = min_value
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}
        self._underflow = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times (one bucket update, however
        many samples share the value)."""
        if count < 1:
            raise TelemetryError(
                f"histogram {self.name!r}: count must be >= 1"
                f" (got {count})")
        value = float(value)
        self.count += count
        self.total += value * count
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if value <= self.min_value:
            self._underflow += count
            return
        index = int(math.log(value / self.min_value) / self._log_growth)
        self._buckets[index] = self._buckets.get(index, 0) + count

    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1] (0 on empty)."""
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * (self.count - 1) + 1
        seen = self._underflow
        if seen >= target:
            return self.min_value
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= target:
                low = self.min_value * self.growth ** index
                return low * math.sqrt(self.growth)
        return self.max

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean(),
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }

    snapshot = summary


class MetricsRegistry:
    """A namespace of counters, gauges, and histograms.

    ``counter``/``gauge``/``histogram`` get-or-create by name, so
    producers in different modules can publish into one registry without
    coordinating construction order.  A name may hold only one metric
    type; re-requesting it under a different type raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, factory, kind):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, kind):
            raise TelemetryError(
                f"metric {name!r} already registered as"
                f" {type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, Gauge)

    def histogram(self, name: str, growth: float = 1.01,
                  min_value: float = 1e-12) -> StreamingHistogram:
        return self._get_or_create(
            name,
            lambda n: StreamingHistogram(n, growth=growth,
                                         min_value=min_value),
            StreamingHistogram,
        )

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def value(self, name: str) -> float:
        """The value of counter or gauge ``name``; 0 when no metric of
        that name exists (reading never registers one)."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        return metric.value  # type: ignore[attr-defined]

    def grouped(self, prefix: str) -> Dict[str, Dict[str, float]]:
        """Counters named ``<prefix><group>.<leaf>`` as ``group ->
        {leaf -> value}`` (the group is everything up to the last
        dot, so it may itself contain dots)."""
        groups: Dict[str, Dict[str, float]] = {}
        for name in self.names():
            metric = self._metrics[name]
            if name.startswith(prefix) and isinstance(metric, Counter):
                group, _, leaf = name[len(prefix):].rpartition(".")
                groups.setdefault(group, {})[leaf] = metric.value
        return groups

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``name -> {field -> value}`` for every registered metric."""
        return {
            name: self._metrics[name].snapshot()  # type: ignore[attr-defined]
            for name in self.names()
        }
