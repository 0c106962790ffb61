"""Smoke tests of the system benchmark at tiny sizes.

Run with ``python -m pytest perfbench/tests`` from the repository root.
Each case runs ``perfbench/run.py --smoke`` end to end (fresh worker
processes, output checks included) and checks the result schema
against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

#: Per-layer facts each workload's traced smoke run must show:
#: (metric, predicate) pairs, including the issue's "no change" rows.
EXPECT = {
    "funnel_cold": [("dse.calls", bool), ("hw.batch.calls", bool),
                    ("system.fleet.calls", bool),
                    ("system.mission.calls", bool),
                    ("engine.key.calls", bool)],
    "warm_replay": [("engine.key.calls", bool),
                    ("engine.cache.hit_ratio", lambda v: v == 1.0),
                    ("engine.evaluator.oracle_calls", lambda v: v == 0),
                    ("hw.batch.calls", lambda v: v == 0),
                    ("system.mission.calls", lambda v: v == 0)],
    "serve_mixed": [("serve.protocol.calls", bool),
                    ("serve.server.flushes", bool),
                    ("engine.cache.put_self_s", bool),
                    ("serve.server.refused", lambda v: v == 0)],
    "fleet_montecarlo": [("system.fleet.calls", bool),
                         ("system.fleet.plan_s", bool),
                         ("spec.calls", bool),
                         ("engine.key.calls", lambda v: v == 0),
                         ("engine.cache.calls", lambda v: v == 0)],
}


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in table]
    for name, unit, _ in table:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        for name, holds in EXPECT[workload]:
            assert holds(result["metrics"][name]["value"]), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run("funnel_cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
