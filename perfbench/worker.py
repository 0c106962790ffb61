"""One workload in a fresh process: set up, measure, check, report.

Started by ``run.py``; prints one JSON object as its last stdout line.

Modes:
    setup   set up, tear down, report ``setup_s`` only;
    run     set up, measure an untraced window, check;
    trace   install the layer wrappers first, then as ``run``, and
            report per-layer metrics for the window.

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process (a system-wide clock on Linux), so ``setup_s`` covers
interpreter start and imports too.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Bin width, in seconds, when selecting the fastest bins of a window.
BIN_S = 0.5


def latency_summary(samples_ms):
    """Median and 99th percentile (inclusive quantiles) of a sample."""
    if len(samples_ms) < 2:
        value = samples_ms[0] if samples_ms else 0.0
        return value, value
    cuts = statistics.quantiles(samples_ms, n=100, method="inclusive")
    return statistics.median(samples_ms), cuts[98]


def fastest_bins(values, per_bin):
    """Indices of the samples in the fastest third of the window.

    ``values`` are in time order.  They are cut into bins of
    ``per_bin`` consecutive samples (about :data:`BIN_S` worth) and
    the third of the bins with the lowest medians is kept.  The host
    this benchmark was tuned on switches between a fast state and one
    about 1.6x slower for seconds at a time; statistics over the
    fastest bins describe the program rather than how much of the
    window fell in the slow state.
    """
    bins = [range(i, min(i + per_bin, len(values)))
            for i in range(0, len(values), per_bin)]
    bins.sort(key=lambda chunk: statistics.median(values[j] for j in chunk))
    return [j for chunk in bins[:(len(bins) + 2) // 3] for j in chunk]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_inprocess(args, work: Path, size) -> dict:
    from workloads import WORKLOADS, run_window

    recorder = None
    if args.mode == "trace":
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)
        recorder.on = True
    workload = WORKLOADS[args.workload](ROOT, work, args.seed, size)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    if recorder is not None:
        recorder.on = False
        layers.calibrate(recorder)
        spec_metrics = recorder.metrics(setup_s, only=("spec",))
        recorder.reset()
    report = {"setup_s": setup_s, "unit": workload.unit}
    if args.mode == "setup":
        return report
    window = run_window(workload, args.seconds, recorder)
    rss = peak_rss_mb()
    failed = window["failed"] + workload.final_checks()
    durations, works = window["durations"], window["works"]
    busy = sum(durations)
    per_bin = max(int(BIN_S / statistics.median(durations)), 1)
    keep = fastest_bins(durations, per_bin)
    p50, p99 = latency_summary([durations[j] * 1e3 for j in keep])
    report.update(
        work=sum(works), busy_s=busy, ops=len(durations),
        # Work over op time, summed over the kept bins: a slow op inside
        # them (a collection, a rebuild) lowers the rate, not the p50.
        throughput_per_s=(sum(works[j] for j in keep)
                          / sum(durations[j] for j in keep)),
        latency_p50_ms=p50, latency_p99_ms=p99,
        latency_samples=len(keep), peak_rss_mb=rss,
        attempted=window["attempted"], failed=failed)
    if recorder is not None:
        from layers import extras

        layer_metrics = recorder.metrics(busy)
        layer_metrics.update(spec_metrics)
        layer_metrics.update(extras(recorder))
        layer_metrics.update(workload.layer_extras())
        layer_metrics.update({
            f"engine.evaluator.{name}": value
            for name, value in workload.engine.items()})
        layer_metrics["trace.wrapper_ns"] = \
            (recorder.inner_s + recorder.outer_s) * 1e9
        report["layers"] = layer_metrics
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    work = BENCH / ".work" / f"{args.workload}-{args.mode}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "serve_mixed":
            from servegen import SIZES, run_serve
            report = run_serve(args, work,
                               SIZES["smoke" if args.smoke else "full"])
        else:
            from workloads import SIZES
            report = run_inprocess(
                args, work,
                SIZES[args.workload]["smoke" if args.smoke else "full"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another worker's directory is still there
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
