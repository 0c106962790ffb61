"""System benchmark of the co-design stack, end to end and per layer.

Usage::

    python perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``funnel_cold``, ``warm_replay``, ``serve_mixed``,
``fleet_montecarlo`` (see ``perfbench/README.md``).  Each measurement
runs in a fresh Python process (``worker.py``).  With ``--trace 0``
the benchmark sets the workload up several times (reporting the median
set-up time), measures one untraced window and prints the end-to-end
metrics; with ``--trace 1`` it measures half a window untraced and half
with the per-layer wrappers installed, and prints the per-layer
metrics.  Output checks run in every window; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
non-zero when a check failed.  ``--smoke`` shrinks every size for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import FLEET_PHASES, LAYERS  # noqa: E402

WORKLOADS = ("funnel_cold", "warm_replay", "serve_mixed",
             "fleet_montecarlo")

#: Set-ups per untraced run (half before the measured run, the run's
#: own, the rest after it); ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: (name, unit, better) of the end-to-end metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of the per-layer metrics.  A layer a workload
#: never reaches reports zeros.
PER_LAYER = tuple(
    (f"{layer}.{kind}", unit, better)
    for layer in LAYERS
    for kind, unit, better in (("calls", "count", "higher"),
                               ("items", "count", "higher"),
                               ("self_s", "s", "lower"),
                               ("share", "ratio", "lower"))
) + (
    ("engine.cache.hit_ratio", "ratio", "higher"),
    ("engine.cache.get_self_s", "s", "lower"),
    ("engine.cache.put_self_s", "s", "lower"),
    ("engine.evaluator.oracle_calls", "count", "lower"),
    ("engine.evaluator.batch_fallbacks", "count", "lower"),
    ("dse.funnel.top_tier_frac", "ratio", "lower"),
    ("dse.funnel.pricing.evaluated", "count", "higher"),
    ("dse.funnel.fleet.evaluated", "count", "higher"),
    ("dse.funnel.mission.evaluated", "count", "higher"),
    ("hw.batch.rows", "count", "higher"),
    ("system.fleet.alloc_bytes_per_rollout", "B", "lower"),
    ("system.fleet.batch_fallbacks", "count", "lower"),
) + tuple(
    (f"system.fleet.{phase}_s", "s", "lower") for phase in FLEET_PHASES
) + (
    ("serve.server.flushes", "count", "lower"),
    ("serve.server.flush_occupancy_mean", "count", "higher"),
    ("serve.server.coalesced_batches", "count", "higher"),
    ("serve.server.hit_ratio", "ratio", "higher"),
    ("serve.server.refused", "count", "lower"),
    ("serve.server.server_p50_ms", "ms", "lower"),
    ("serve.server.server_p99_ms", "ms", "lower"),
    ("serve.server.wait_ms", "ms", "lower"),
    ("serve.server.generator_lag_ms", "ms", "lower"),
    ("trace.wrapper_ns", "ns", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class ChildFailed(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def child(args: argparse.Namespace, mode: str,
          seconds: float) -> Dict[str, Any]:
    """Run one worker process to completion and parse its report.

    The worker gets its own process group, so a timeout also stops the
    daemon a ``serve_mixed`` worker started."""
    argv = [sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--mode", mode]
    if args.smoke:
        argv.append("--smoke")
    start = time.monotonic()
    proc = subprocess.Popen(argv + ["--t0", repr(start)], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} worker timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} worker exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise ChildFailed(f"{mode} worker printed no report") from None


def end_to_end(args: argparse.Namespace) -> Dict[str, Any]:
    """Set-up only, before and after the measured run, so the set-up
    samples span the run rather than one stretch of host state."""
    def sample(count: int) -> List[float]:
        return [child(args, "setup", args.seconds)["setup_s"]
                for _ in range(count)]

    before = sample(SETUP_SAMPLES // 2)
    run = child(args, "run", args.seconds)
    after = sample(SETUP_SAMPLES - 1 - len(before))
    setups = before + [run["setup_s"]] + after
    run["setup_s"] = statistics.median(setups)
    run["setup_samples_s"] = setups
    return run


def per_layer(args: argparse.Namespace) -> Dict[str, Any]:
    """Half the window untraced, half traced, in separate processes;
    the throughput ratio is the tracing overhead."""
    plain = child(args, "run", args.seconds / 2)
    traced = child(args, "trace", args.seconds / 2)
    layers = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    layers.update(traced.pop("layers"))
    layers["trace.overhead_ratio"] = \
        plain["throughput_per_s"] / traced["throughput_per_s"]
    traced["layers"] = layers
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    return traced


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a"
              " checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.telemetry import run_provenance

    try:
        report = per_layer(args) if args.trace else end_to_end(args)
    except ChildFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    if args.trace:
        table = [(name, report["layers"][name], unit)
                 for name, unit, _ in PER_LAYER]
    else:
        table = [(name, report[name], unit) for name, unit, _ in END_TO_END]
    attempted, failed = report["attempted"], report["failed"]
    ops = f" in {report['ops']} op(s)" if "ops" in report else ""
    print(f"{args.workload} (seed {args.seed}, {args.seconds:g} s,"
          f" trace {args.trace}): {report['work']} {report['unit']}{ops},"
          f" latency samples kept {report['latency_samples']},"
          f" failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    for name, value, unit in table:
        print(f"  {name:<40} {value:>16.6g} {unit}")
    record = {"workload": args.workload, "trace": args.trace,
              "report": report,
              "provenance": run_provenance(
                  seed=args.seed,
                  config={"workload": args.workload,
                          "seconds": args.seconds, "trace": args.trace,
                          "smoke": args.smoke})}
    print("record " + json.dumps(record, default=str))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in table}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
