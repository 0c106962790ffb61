"""The perf ledger: append-only provenance-stamped benchmark records.

Before this module the repo's performance history was two ad-hoc
``BENCH_*.json`` files — a snapshot each, no trajectory, no gate.  The
ledger fixes all three:

- **Records** — every ``repro bench`` run appends one JSON line per
  (benchmark, size) to ``BENCH_LEDGER.jsonl``: the measured metrics plus
  full provenance (git SHA, seed, python/numpy versions, machine
  fingerprint, wall time, peak RSS).  JSONL so appends are atomic-ish
  and history diffs line-by-line.
- **Baselines** — ``BENCH_BASELINES.json`` holds the committed
  reference values per (benchmark, size).  Baselines carry the machine
  fingerprint they were measured on; gating compares only dimensionless
  metrics (speedups, ratios — see
  :class:`~repro.bench.registry.Metric.gate`), which transfer across
  machines far better than absolute rates.
- **The gate** — :func:`check_records` compares a run against the
  baselines and reports per-metric regressions beyond a relative
  threshold; ``repro bench --check`` turns that into a nonzero exit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.registry import Benchmark
from repro.errors import BenchmarkError
from repro.telemetry.export import run_provenance
from repro.telemetry.profiling import peak_rss_kb

__all__ = [
    "DEFAULT_BASELINES_PATH",
    "DEFAULT_LEDGER_PATH",
    "LEDGER_SCHEMA",
    "BaselineCheck",
    "MonotoneCheck",
    "append_records",
    "baselines_from_records",
    "check_monotone",
    "check_records",
    "ledger_record",
    "load_baselines",
    "merge_baselines",
    "read_ledger",
    "write_baselines",
]

LEDGER_SCHEMA = "repro-bench-ledger/1"
BASELINES_SCHEMA = "repro-bench-baselines/1"
DEFAULT_LEDGER_PATH = "BENCH_LEDGER.jsonl"
DEFAULT_BASELINES_PATH = "BENCH_BASELINES.json"


def ledger_record(benchmark: str, size: int,
                  metrics: Mapping[str, float],
                  wall_time_s: float,
                  seed: Optional[int] = None,
                  config: Optional[Mapping[str, Any]] = None
                  ) -> Dict[str, Any]:
    """Build one provenance-stamped ledger record."""
    return {
        "schema": LEDGER_SCHEMA,
        "benchmark": benchmark,
        "size": int(size),
        "metrics": {name: value for name, value in metrics.items()},
        "wall_time_s": round(float(wall_time_s), 6),
        "peak_rss_kb": peak_rss_kb(),
        "provenance": run_provenance(seed=seed, config=config),
    }


def append_records(path: str,
                   records: Sequence[Mapping[str, Any]]) -> int:
    """Append records as JSON lines; returns the count written."""
    if not records:
        return 0
    with open(path, "a") as handle:
        for record in records:
            handle.write(json.dumps(record, default=str) + "\n")
    return len(records)


def read_ledger(path: str) -> List[Dict[str, Any]]:
    """Load every record from a ledger file (empty if absent)."""
    if not os.path.exists(path):
        return []
    records = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise BenchmarkError(
                    f"{path}:{line_no}: not a JSON record"
                    f" ({error})") from None
    return records


# -- baselines ---------------------------------------------------------

def baselines_from_records(records: Sequence[Mapping[str, Any]],
                           source: str = "measured"
                           ) -> Dict[str, Any]:
    """Build a baselines document from ledger records (last record per
    (benchmark, size) wins)."""
    entries: Dict[Tuple[str, int], Dict[str, Any]] = {}
    for record in records:
        key = (record["benchmark"], int(record["size"]))
        entries[key] = {
            "benchmark": record["benchmark"],
            "size": int(record["size"]),
            "metrics": dict(record["metrics"]),
            "source": source,
            "git_sha": (record.get("provenance") or {}).get("git_sha"),
            "machine": (record.get("provenance") or {}).get("machine"),
        }
    return {
        "schema": BASELINES_SCHEMA,
        "entries": [entries[key] for key in sorted(entries)],
    }


def load_baselines(path: str
                   ) -> Dict[Tuple[str, int], Dict[str, Any]]:
    """``(benchmark, size) -> entry`` from a baselines document."""
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        document = json.load(handle)
    if document.get("schema") != BASELINES_SCHEMA:
        raise BenchmarkError(
            f"{path}: expected schema {BASELINES_SCHEMA!r},"
            f" got {document.get('schema')!r}")
    return {(entry["benchmark"], int(entry["size"])): entry
            for entry in document.get("entries", ())}


def merge_baselines(path: str,
                    document: Mapping[str, Any]) -> Dict[str, Any]:
    """Merge ``document`` entries over the file's (new keys win)."""
    existing = load_baselines(path)
    for entry in document.get("entries", ()):
        existing[(entry["benchmark"], int(entry["size"]))] = entry
    return {
        "schema": BASELINES_SCHEMA,
        "entries": [existing[key] for key in sorted(existing)],
    }


def write_baselines(path: str, document: Mapping[str, Any]) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


# -- the regression gate ----------------------------------------------

@dataclass(frozen=True)
class BaselineCheck:
    """One gated metric compared against its baseline.

    ``change`` is the signed relative move in the *good* direction:
    +0.10 means 10% better than baseline, -0.10 means 10% worse.
    ``regressed`` is True when ``change < -threshold``.
    """

    benchmark: str
    size: int
    metric: str
    baseline: float
    measured: float
    change: float
    threshold: float
    regressed: bool


def check_records(records: Sequence[Mapping[str, Any]],
                  baselines: Mapping[Tuple[str, int], Mapping[str, Any]],
                  benchmarks: Mapping[str, Benchmark],
                  threshold: float) -> List[BaselineCheck]:
    """Gate a run's records against the committed baselines.

    Records without a matching (benchmark, size) baseline entry, and
    metrics absent from the baseline, are skipped — the gate only
    compares what both sides measured.  Returns every comparison made
    (callers filter on ``regressed``).
    """
    if threshold < 0:
        raise BenchmarkError(
            f"threshold must be >= 0, got {threshold}")
    checks: List[BaselineCheck] = []
    for record in records:
        name = record["benchmark"]
        size = int(record["size"])
        entry = baselines.get((name, size))
        benchmark = benchmarks.get(name)
        if entry is None or benchmark is None:
            continue
        for metric in benchmark.gated_metrics():
            base = entry.get("metrics", {}).get(metric.name)
            measured = record.get("metrics", {}).get(metric.name)
            if base is None or measured is None:
                continue
            base = float(base)
            measured = float(measured)
            if base == 0.0:
                continue
            raw = (measured - base) / abs(base)
            change = raw if metric.higher_is_better else -raw
            checks.append(BaselineCheck(
                benchmark=name, size=size, metric=metric.name,
                baseline=base, measured=measured,
                change=change, threshold=threshold,
                regressed=change < -threshold,
            ))
    return checks


# -- the monotonicity gate ---------------------------------------------

@dataclass(frozen=True)
class MonotoneCheck:
    """One size-to-size step of a monotone-declared metric.

    The metric at ``size`` must be at least ``tolerance`` times its
    value at the previous (smaller) ``prev_size`` within the same run;
    ``violated`` is True when it falls below that.  Being a same-run,
    same-machine comparison, a violation is machine-independent
    evidence the metric's scaling collapsed (e.g. a batch speedup
    flattened by allocation churn at large populations).
    """

    benchmark: str
    metric: str
    prev_size: int
    size: int
    prev_value: float
    value: float
    tolerance: float
    violated: bool


def check_monotone(records: Sequence[Mapping[str, Any]],
                   benchmarks: Mapping[str, Benchmark],
                   tolerance: float = 0.9) -> List[MonotoneCheck]:
    """Check monotone-declared metrics across a run's size sweep.

    For each benchmark with :class:`~repro.bench.registry.Metric`
    entries declaring ``monotone=True``, the run's records are ordered
    by size (last record per size wins) and every adjacent pair is
    compared: ``value(size_{i+1}) >= tolerance * value(size_i)``.
    Returns every comparison made (callers filter on ``violated``);
    benchmarks measured at fewer than two sizes contribute none.
    """
    if not 0.0 < tolerance:
        raise BenchmarkError(
            f"tolerance must be > 0, got {tolerance}")
    by_bench: Dict[str, Dict[int, Mapping[str, Any]]] = {}
    for record in records:
        name = record["benchmark"]
        by_bench.setdefault(name, {})[int(record["size"])] = \
            record.get("metrics", {})
    checks: List[MonotoneCheck] = []
    for name, by_size in by_bench.items():
        benchmark = benchmarks.get(name)
        if benchmark is None or len(by_size) < 2:
            continue
        monotone = [m for m in benchmark.metrics if m.monotone]
        sizes = sorted(by_size)
        for metric in monotone:
            for prev_size, size in zip(sizes, sizes[1:]):
                prev_value = by_size[prev_size].get(metric.name)
                value = by_size[size].get(metric.name)
                if prev_value is None or value is None:
                    continue
                prev_value = float(prev_value)
                value = float(value)
                checks.append(MonotoneCheck(
                    benchmark=name, metric=metric.name,
                    prev_size=prev_size, size=size,
                    prev_value=prev_value, value=value,
                    tolerance=tolerance,
                    violated=value < tolerance * prev_value,
                ))
    return checks
