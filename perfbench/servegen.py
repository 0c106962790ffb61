"""The ``serve_mixed`` workload: one ``repro serve`` daemon, one load
generator (this process) with two connections.

Set-up starts the daemon with its shipped flush defaults and an
on-disk cache, waits for its ``serving on`` banner and primes a hot set
of ``codesign_xl`` designs.  The window then runs two phases:

1. **Open loop** at a fixed nominal rate.  Connection 0 is a tenant
   replaying hot designs (3/4 of the requests, all cache hits);
   connection 1 is a tenant exploring new designs (1/4, each request
   carrying at least one never-seen design that becomes a miss
   persisted to disk).  Each request is timed from when it was *due*.
   The daemon answers each connection in request order, so keeping the
   two tenants on their own connections stops a miss, which parks for
   up to ``max_wait_ms`` until its flush, from holding back the hits
   queued behind it.
2. **Closed loop** saturation: both connections send the same 3:1 mix
   and keep a fixed window of pipelined requests outstanding.

Afterwards every served value is compared with
``suite_objective.evaluate_batch``, every served key with ``key_for``
under the CLI's evaluator context, the cache directory with the served
keys, and the daemon must exit 0 after ``shutdown``.
"""

from __future__ import annotations

import json
import os
import queue
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from worker import BENCH, BIN_S, ROOT, fastest_bins, latency_summary

SIZES = {
    # rate: open-loop requests/s over both connections (the README
    # gives the reasons for 300).
    "full": {"hot": 1024, "rate": 300.0, "open_frac": 0.5, "window": 64,
             "prime_chunk": 256},
    "smoke": {"hot": 64, "rate": 40.0, "open_frac": 0.6, "window": 8,
              "prime_chunk": 32},
}

#: The latency limit the open-loop p99 is held to (twice the daemon's
#: default ``max_wait_ms``).
LATENCY_LIMIT_MS = 100.0

#: Share of requests drawn only from the hot set.
HOT_SHARE = 0.75

SPACE = "codesign_xl"
OBJECTIVE = "suite_objective"


class Traffic:
    """Seeded request generator over ``codesign_xl``."""

    def __init__(self, space: Any, seed: int, hot: int):
        rng = np.random.default_rng([seed, 0])
        order = rng.permutation(space.size)
        self.space = space
        self.hot = [int(i) for i in order[:hot]]
        self._fresh = iter(int(i) for i in order[hot:])
        self._lock = threading.Lock()

    def fresh(self) -> int:
        with self._lock:
            return next(self._fresh)

    def request(self, rng: np.random.Generator, kind: str,
                tenant: str) -> Dict[str, Any]:
        """One submit: 1-8 designs, inline or by index; a ``new``
        request leads with at least one design never sent before."""
        count = int(rng.integers(1, 9))
        new: List[int] = []
        if kind == "new":
            new = [self.fresh() for _ in range(int(rng.integers(1,
                                                               count + 1)))]
        picks = [self.hot[int(j)]
                 for j in rng.integers(0, len(self.hot),
                                       size=count - len(new))]
        indices = new + picks
        rng.shuffle(indices)
        message: Dict[str, Any] = {"op": "submit", "objective": OBJECTIVE,
                                   "tenant": tenant}
        if rng.random() < 0.5:
            message["candidates"] = [self.space.config_at(i)
                                     for i in indices]
        else:
            message["space"] = SPACE
            message["indices"] = indices
        return {"message": message, "indices": indices, "new": set(new)}


class Connection:
    """One pipelined connection: a sender and a receiver thread."""

    def __init__(self, port: int):
        import socket

        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=60.0)
        self.file = self.sock.makefile("rb")

    def send(self, message: Dict[str, Any]) -> None:
        from repro.serve.protocol import encode_line

        self.sock.sendall(encode_line(message))

    def recv(self) -> Dict[str, Any]:
        from repro.serve.protocol import read_frame

        line = read_frame(self.file)
        if line is None:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.send(message)
        return self.recv()

    def close(self) -> None:
        self.file.close()
        self.sock.close()


class Tally:
    """Served outputs and failures, shared by the receiver threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.served: Dict[int, tuple] = {}
        self.failed = 0
        self.refused = 0

    def record(self, request: Dict[str, Any],
               response: Dict[str, Any]) -> None:
        ok = bool(response.get("ok"))
        results = response.get("results", [])
        ok = ok and len(results) == len(request["indices"])
        with self.lock:
            if response.get("error") == "overloaded":
                self.refused += 1
            if ok:
                for index, result in zip(request["indices"], results):
                    seen = self.served.setdefault(
                        index, (result["value"], result["key"]))
                    fresh = index in request["new"]
                    ok = (ok and seen == (result["value"], result["key"])
                          and result["cached"] is not fresh)
            self.failed += not ok


def _pump(conn: Connection, requests: "queue.Queue", tally: Tally,
          times: List[float], window: Optional[threading.Semaphore]
          ) -> None:
    """Receiver: match in-order responses to sent requests."""
    clock = time.perf_counter
    while True:
        request = requests.get()
        if request is None:
            return
        try:
            response = conn.recv()
        except (OSError, ValueError) as error:
            response = {"ok": False, "error": f"transport: {error}"}
        times.append(clock())
        if window is not None:
            window.release()
        request["done"] = times[-1]
        tally.record(request, response)


def open_loop(conns: List[Connection], traffic: Traffic, seed: int,
              rate: float, seconds: float, tally: Tally) -> Dict[str, Any]:
    """Fixed-rate phase; latency counts from each request's due time."""
    from repro.serve.protocol import encode_line

    clock = time.perf_counter
    plans = []
    for c, (kind, tenant, share) in enumerate(
            (("hot", "replay", HOT_SHARE),
             ("new", "explore", 1.0 - HOT_SHARE))):
        rng = np.random.default_rng([seed, 1, c])
        period = 1.0 / (rate * share)
        count = max(int(seconds / period), 1)
        plan = []
        for j in range(count):
            request = traffic.request(rng, kind, tenant)
            request["wire"] = encode_line(request.pop("message"))
            request["offset"] = (j + 0.5 * c) * period
            plan.append(request)
        plans.append(plan)
    start = clock() + 0.05
    lags: List[float] = []

    def send(conn: Connection, plan: List[Dict], requests) -> None:
        for request in plan:
            due = start + request["offset"]
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            request["due"] = due
            conn.sock.sendall(request["wire"])
            lags.append(clock() - due)
            requests.put(request)
        requests.put(None)

    threads = []
    for conn, plan in zip(conns, plans):
        requests: "queue.Queue" = queue.Queue()
        threads.append(threading.Thread(target=send,
                                        args=(conn, plan, requests)))
        threads.append(threading.Thread(target=_pump,
                                        args=(conn, requests, tally, [],
                                              None)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    timeline = sorted((r["due"], (r["done"] - r["due"]) * 1e3)
                      for plan in plans for r in plan)
    all_ms = [latency for _, latency in timeline]
    keep = fastest_bins(all_ms, max(int(rate * BIN_S), 1))
    return {"latencies_ms": [all_ms[j] for j in keep],
            "lags_ms": [x * 1e3 for x in lags], "all_ms": all_ms,
            "attempted": len(timeline)}


def closed_loop(conns: List[Connection], traffic: Traffic, seed: int,
                window: int, seconds: float, tally: Tally
                ) -> Dict[str, Any]:
    """Saturation phase: each connection keeps ``window`` requests in
    flight; throughput is the mean rate of the busiest third of the
    phase's ``BIN_S`` bins."""
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    sent = [0, 0]
    times: List[List[float]] = [[], []]

    def send(c: int, conn: Connection, requests, slots) -> None:
        rng = np.random.default_rng([seed, 2, c])
        while True:
            slots.acquire()
            if clock() >= deadline:
                break
            kind = "hot" if rng.random() < HOT_SHARE else "new"
            request = traffic.request(rng, kind, f"closed-{c}")
            conn.send(request.pop("message"))
            sent[c] += 1
            requests.put(request)
        requests.put(None)

    threads = []
    for c, conn in enumerate(conns):
        requests: "queue.Queue" = queue.Queue()
        slots = threading.Semaphore(window)
        threads.append(threading.Thread(target=send,
                                        args=(c, conn, requests, slots)))
        threads.append(threading.Thread(target=_pump,
                                        args=(conn, requests, tally,
                                              times[c], slots)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    bins: List[List[float]] = [[] for _ in range(max(int(seconds / BIN_S),
                                                     2))]
    for t in sorted(t for ts in times for t in ts):
        slot = int((t - start) / BIN_S)
        if slot < len(bins):
            bins[slot].append(t)
    # Each bin's rate from its own first and last response; negated so
    # the fastest bins are the busiest.
    rates = [-(len(b) - 1) / (b[-1] - b[0]) for b in bins if len(b) > 1]
    busiest = [rates[j] for j in fastest_bins(rates, 1)]
    return {"throughput_per_s": -statistics.mean(busiest),
            "attempted": sum(sent)}


def _stats(conn: Connection) -> Dict[str, Any]:
    response = conn.call({"op": "stats"})
    if not response.get("ok"):
        raise RuntimeError(f"stats failed: {response}")
    return response


def _delta(before: Dict, after: Dict, *path: str) -> float:
    for key in path:
        before, after = before.get(key, {}), after.get(key, {})
    return float(after or 0.0) - float(before or 0.0)


def _server_metrics(s0: Dict, s_open: Dict, s1: Dict,
                    client_p50_ms: float) -> Dict[str, float]:
    """``serve.server.*`` from ``stats`` snapshots taken before the
    window, after the open-loop phase and after the closed loop."""
    occupancy0 = s0["serve"]["batch_occupancy"]
    occupancy1 = s1["serve"]["batch_occupancy"]
    flushes = occupancy1["count"] - occupancy0["count"]
    occupied = (occupancy1["mean"] * occupancy1["count"]
                - occupancy0["mean"] * occupancy0["count"])
    hits = _delta(s0, s1, "cache", "hits")
    misses = _delta(s0, s1, "cache", "misses")
    latency = s_open["serve"]["request_latency_s"]
    return {
        "serve.server.calls": _delta(s0, s1, "serve", "requests"),
        "serve.server.items": _delta(s0, s1, "serve", "candidates"),
        "serve.server.flushes": flushes,
        "serve.server.flush_occupancy_mean":
            occupied / flushes if flushes else 0.0,
        "serve.server.coalesced_batches":
            _delta(s0, s1, "serve", "coalesced_batches"),
        "serve.server.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "serve.server.server_p50_ms": latency["p50"] * 1e3,
        "serve.server.server_p99_ms": latency["p99"] * 1e3,
        "serve.server.wait_ms": client_p50_ms - latency["p50"] * 1e3,
        "engine.evaluator.oracle_calls":
            _delta(s0, s1, "lanes", OBJECTIVE, "oracle_calls"),
        "engine.evaluator.batch_fallbacks":
            _delta(s0, s1, "lanes", OBJECTIVE, "batch_fallbacks"),
    }


def _start_daemon(args, work: Path, cache: Path, layers_out: Path):
    command = ["serve", "--port", "0", "--cache", str(cache)]
    if args.mode == "trace":
        argv = [sys.executable, str(BENCH / "serve_boot.py"),
                "--layers-out", str(layers_out), *command]
    else:
        argv = [sys.executable, "-m", "repro", *command]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    daemon = subprocess.Popen(argv, cwd=work, env=env,
                              stdout=subprocess.PIPE, text=True)
    banner = daemon.stdout.readline()
    if not banner.startswith("serving on "):
        daemon.kill()
        daemon.wait()
        raise RuntimeError(f"daemon did not start: {banner!r}")
    drain = threading.Thread(target=daemon.stdout.read, daemon=True)
    drain.start()
    return daemon, int(banner.rsplit(":", 1)[1])


def _final_checks(traffic: Traffic, tally: Tally, cache: Path) -> int:
    """Served values and keys against the one-shot objective and
    ``key_for``; disk entries against the served keys."""
    from repro.engine import Evaluator
    from repro.serve.protocol import evaluator_context
    from repro.spec.registry import OBJECTIVES

    objective = OBJECTIVES.get(OBJECTIVE)
    evaluator = Evaluator(objective,
                          context=evaluator_context(OBJECTIVE))
    indices = sorted(tally.served)
    configs = [traffic.space.config_at(i) for i in indices]
    values = objective.evaluate_batch(configs)
    failed = 0
    for index, config, value in zip(indices, configs, values):
        served_value, served_key = tally.served[index]
        failed += (served_value != value
                   or served_key != evaluator.key_for(config))
    on_disk = {path.stem for path in cache.glob("*.json")}
    failed += on_disk != {key for _, key in tally.served.values()}
    return failed


def run_serve(args, work: Path, size: Dict[str, Any]) -> Dict[str, Any]:
    from repro.spec.registry import SPACES

    cache = work / "cache"
    layers_out = work / "daemon-layers.json"
    daemon, port = _start_daemon(args, work, cache, layers_out)
    conns: List[Connection] = []
    try:
        conns = [Connection(port), Connection(port)]
        traffic = Traffic(SPACES.build(SPACE, "space"), args.seed,
                          size["hot"])
        tally = Tally()
        chunk = size["prime_chunk"]
        for lo in range(0, len(traffic.hot), chunk):
            conns[0].send({"op": "submit", "objective": OBJECTIVE,
                           "tenant": "prime", "space": SPACE,
                           "indices": traffic.hot[lo:lo + chunk]})
        for lo in range(0, len(traffic.hot), chunk):
            request = {"indices": traffic.hot[lo:lo + chunk],
                       "new": set(traffic.hot[lo:lo + chunk])}
            tally.record(request, conns[0].recv())
        if tally.failed:
            raise RuntimeError("priming the hot set failed")
        report: Dict[str, Any] = {"setup_s": time.monotonic() - args.t0,
                                  "unit": "requests"}
        if args.mode == "setup":
            conns[0].call({"op": "shutdown"})
            return report
        if args.mode == "trace":
            daemon.send_signal(signal.SIGUSR1)
        before = _stats(conns[0])
        opened = open_loop(conns, traffic, args.seed,
                           size["rate"], args.seconds * size["open_frac"],
                           tally)
        after_open = _stats(conns[0])
        closed = closed_loop(conns, traffic, args.seed, size["window"],
                             args.seconds * (1 - size["open_frac"]),
                             tally)
        after = _stats(conns[0])
        if args.mode == "trace":
            daemon.send_signal(signal.SIGUSR2)
            conns[0].call({"op": "ping"})
        acknowledged = conns[0].call({"op": "shutdown"}).get("ok")
    except BaseException:
        daemon.kill()
        raise
    finally:
        for conn in conns:
            conn.close()
        try:
            returncode = daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            returncode = daemon.wait()
    failed = tally.failed + (returncode != 0 or not acknowledged)
    failed += _final_checks(traffic, tally, cache)
    p50, p99 = latency_summary(opened["latencies_ms"])
    _, lag99 = latency_summary(opened["lags_ms"])
    report.update(
        work=closed["attempted"], throughput_per_s=closed["throughput_per_s"],
        latency_p50_ms=p50, latency_p99_ms=p99,
        latency_samples=len(opened["latencies_ms"]),
        over_limit=sum(1 for x in opened["all_ms"]
                       if x > LATENCY_LIMIT_MS) + tally.refused,
        latency_limit_ms=LATENCY_LIMIT_MS, open_rate_per_s=size["rate"],
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        attempted=opened["attempted"] + closed["attempted"],
        failed=failed)
    if args.mode == "trace":
        layer_metrics = json.loads(layers_out.read_text())
        layer_metrics.update(_server_metrics(before, after_open, after, p50))
        layer_metrics["serve.server.refused"] = tally.refused
        layer_metrics["serve.server.generator_lag_ms"] = lag99
        report["layers"] = layer_metrics
    return report
