"""Start ``repro serve`` with the per-layer wrappers installed.

Usage::

    python perfbench/serve_boot.py --layers-out FILE serve [serve args]

Installs the same wrappers as the in-process traced runs, then enters
the normal CLI entry point.  ``SIGUSR1`` opens the measured window and
``SIGUSR2`` closes it; when the daemon has drained and the CLI returns,
the window's per-layer metrics are written to ``FILE`` as JSON.

Self times here are CPU time: the wrappers time each call with
``time.thread_time``, so a call on the executor thread that waits for
the GIL held by the event loop is not charged for the wait.
``serve.server.self_s`` is then the daemon's CPU time in the window
(both threads, ``RUSAGE_SELF``) minus the self time of every wrapped
layer: the event loop, sockets and server bookkeeping that no named
layer owns.  Every ``share`` is CPU time over the window's wall time.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--layers-out", required=True)
    args, cli_argv = parser.parse_known_args()
    recorder = layers.Recorder(clock=time.thread_time)
    layers.install(recorder)
    layers.calibrate(recorder)
    marks = {}

    def open_window(signum, frame):
        marks["start"], marks["cpu_start"] = time.perf_counter(), _cpu_s()
        recorder.on = True

    def close_window(signum, frame):
        recorder.on = False
        marks["stop"], marks["cpu_stop"] = time.perf_counter(), _cpu_s()

    signal.signal(signal.SIGUSR1, open_window)
    signal.signal(signal.SIGUSR2, close_window)
    from repro.cli import main as cli_main

    code = cli_main(cli_argv)
    wall = marks["stop"] - marks["start"]
    metrics = recorder.metrics(wall)
    metrics.update(layers.extras(recorder))
    named = sum(metrics[f"{name}.self_s"] for name in layers.LAYERS
                if name != "serve.server")
    own = max(marks["cpu_stop"] - marks["cpu_start"] - named, 0.0)
    metrics["serve.server.self_s"] = own
    metrics["serve.server.share"] = own / wall
    metrics["trace.wrapper_ns"] = (recorder.inner_s
                                   + recorder.outer_s) * 1e9
    Path(args.layers_out).write_text(json.dumps(metrics))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
