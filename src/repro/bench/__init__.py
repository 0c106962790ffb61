"""Benchmark registry + regression-gated perf ledger.

``repro.bench`` turns the scripts under ``benchmarks/`` into named,
discoverable, schema-checked entries (:mod:`repro.bench.registry`),
and gives every run a durable, provenance-stamped history with a
regression gate (:mod:`repro.bench.ledger`).  The ``repro bench`` CLI
verb is the front door; see also the "Performance observatory"
section of the README.
"""

from repro.bench.ledger import (
    BASELINES_SCHEMA,
    DEFAULT_BASELINES_PATH,
    DEFAULT_LEDGER_PATH,
    LEDGER_SCHEMA,
    BaselineCheck,
    MonotoneCheck,
    append_records,
    baselines_from_records,
    check_monotone,
    check_records,
    ledger_record,
    load_baselines,
    merge_baselines,
    read_ledger,
    write_baselines,
)
from repro.bench.registry import (
    REGISTRY,
    Benchmark,
    BenchmarkRegistry,
    Metric,
    get_benchmark,
    load_builtins,
    register_benchmark,
)

__all__ = [
    "BASELINES_SCHEMA",
    "DEFAULT_BASELINES_PATH",
    "DEFAULT_LEDGER_PATH",
    "LEDGER_SCHEMA",
    "REGISTRY",
    "BaselineCheck",
    "Benchmark",
    "BenchmarkRegistry",
    "Metric",
    "MonotoneCheck",
    "append_records",
    "baselines_from_records",
    "check_monotone",
    "check_records",
    "get_benchmark",
    "ledger_record",
    "load_baselines",
    "load_builtins",
    "merge_baselines",
    "read_ledger",
    "register_benchmark",
    "write_baselines",
]
