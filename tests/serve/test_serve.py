"""Integration tests for the evaluation daemon.

Load-bearing properties: served values are byte-identical to the
serial one-shot path (same cache keys, so a server-primed cache
replays ``repro run`` with zero oracle calls), concurrent clients'
misses coalesce into shared batches, and admission control rejects —
never queues unboundedly — under pressure.
"""

import json
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.engine import Evaluator
from repro.serve import ServeClient
from repro.serve.protocol import encode_line, evaluator_context
from repro.spec.registry import OBJECTIVES, SPACES

SPACE = SPACES.build("codesign", "$")


class Exploding:
    """An oracle failing with an error that is not a ReproError."""

    def __call__(self, candidate):
        raise RuntimeError("kernel exploded")

    def evaluate_batch(self, candidates):
        raise RuntimeError("kernel exploded")


def serial_values(indices, objective="suite_objective"):
    """The one-shot reference: a fresh serial Evaluator with the CLI's
    DSE context."""
    evaluator = Evaluator(OBJECTIVES.get(objective),
                          context=evaluator_context(objective))
    outcomes = evaluator.map_batch(
        [SPACE.config_at(i) for i in indices])
    return [outcome.value for outcome in outcomes]


class TestEquivalence:
    def test_served_values_match_serial_path(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            served = client.submit_values(space="codesign",
                                          indices=list(range(8)))
        assert served == serial_values(range(8))

    def test_served_keys_match_serial_path(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        evaluator = Evaluator(
            OBJECTIVES.get("suite_objective"),
            context=evaluator_context("suite_objective"))
        with handle.client() as client:
            envelope = client.submit(space="codesign", indices=[0, 7])
        assert envelope["ok"]
        assert [r["key"] for r in envelope["results"]] == \
            [evaluator.key_for(SPACE.config_at(i)) for i in (0, 7)]

    def test_inline_and_indexed_submissions_share_keys(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            by_index = client.submit(space="codesign", indices=[3])
            inline = client.submit(
                candidates=[SPACE.config_at(3)])
        assert by_index["results"][0]["key"] == \
            inline["results"][0]["key"]
        assert inline["results"][0]["cached"] is True

    def test_server_primed_cache_replays_run_with_zero_oracle_calls(
            self, daemon, tmp_path, capsys):
        # The acceptance criterion, end to end: prime through the
        # daemon, then the one-shot CLI replays entirely from cache.
        cache = str(tmp_path / "cache")
        handle = daemon(max_wait_ms=10.0, cache_dir=cache)
        with handle.client() as client:
            client.submit_values(space="codesign",
                                 indices=list(range(8)))
        handle.stop()

        scenario = tmp_path / "grid8.json"
        scenario.write_text(json.dumps({
            "spec_version": 1, "kind": "scenario", "name": "grid8",
            "dse": {"space": {"ref": "codesign"},
                    "objective": {"ref": "suite_objective"},
                    "strategy": "grid", "budget": 8, "seed": 0,
                    "jobs": 1},
        }))
        assert main(["run", str(scenario), "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "oracle calls: 0 (cache hits: 8, jobs: 1)" in out


class TestCoalescing:
    def test_concurrent_clients_share_one_batch(self, daemon):
        handle = daemon(max_wait_ms=400.0, max_batch=1024)
        clients = 4
        barrier = threading.Barrier(clients)
        values = {}

        def worker(rank):
            indices = list(range(rank * 4, rank * 4 + 4))
            with handle.client() as client:
                barrier.wait()
                values[rank] = client.submit_values(
                    space="codesign", indices=indices,
                    tenant=f"t{rank}")

        threads = [threading.Thread(target=worker, args=(rank,))
                   for rank in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for rank in range(clients):
            assert values[rank] == serial_values(
                range(rank * 4, rank * 4 + 4))

        with handle.client() as client:
            stats = client.stats()["serve"]
        assert stats["coalesced_batches"] >= 1
        assert stats["coalesced_candidates"] >= 8
        # Coalescing amortizes: far fewer flushes than requests.
        assert stats["flushes"] < clients

    def test_duplicate_candidates_share_one_oracle_slot(self, daemon):
        handle = daemon(max_wait_ms=300.0, max_batch=1024)
        barrier = threading.Barrier(2)
        envelopes = {}

        def worker(name):
            with handle.client() as client:
                barrier.wait()
                envelopes[name] = client.submit(
                    space="codesign", indices=[0, 1, 2], tenant=name)

        threads = [threading.Thread(target=worker, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        values = {name: [r["value"] for r in envelopes[name]["results"]]
                  for name in envelopes}
        assert values["a"] == values["b"] == serial_values([0, 1, 2])
        with handle.client() as client:
            stats = client.stats()
        # Both tenants asked for the same 3 candidates; the oracle
        # priced each exactly once.
        occupancy = stats["serve"]["batch_occupancy"]
        assert occupancy["count"] * occupancy["mean"] == 3

    def test_deadline_flushes_a_single_candidate(self, daemon):
        handle = daemon(max_wait_ms=100.0, max_batch=1024)
        started = time.monotonic()
        with handle.client() as client:
            values = client.submit_values(space="codesign",
                                          indices=[9])
            stats = client.stats()["serve"]
        assert time.monotonic() - started < 30
        assert values == serial_values([9])
        assert stats["flushes"] == 1
        assert stats["batch_occupancy"]["count"] == 1
        assert stats["batch_occupancy"]["mean"] == 1

    def test_occupancy_triggers_flush_before_deadline(self, daemon):
        # With a 60s deadline, only the max_batch trigger can explain
        # a prompt answer.
        handle = daemon(max_wait_ms=60_000.0, max_batch=4)
        started = time.monotonic()
        with handle.client() as client:
            values = client.submit_values(space="codesign",
                                          indices=[0, 1, 2, 3])
        assert time.monotonic() - started < 30
        assert values == serial_values([0, 1, 2, 3])

    def test_no_coalesce_prices_request_alone(self, daemon):
        handle = daemon(max_wait_ms=60_000.0, max_batch=1024)
        with handle.client() as client:
            values = client.submit_values(space="codesign",
                                          indices=[4, 5],
                                          no_coalesce=True)
            stats = client.stats()["serve"]
        assert values == serial_values([4, 5])
        assert stats["flushes"] == 1
        assert stats["coalesced_batches"] == 0


class TestCacheSharing:
    def test_hits_answer_across_tenants(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            client.submit_values(space="codesign", indices=[0, 1, 2],
                                 tenant="t1")
            second = client.submit(space="codesign", indices=[1, 2, 3],
                                   tenant="t2")
        assert [r["cached"] for r in second["results"]] == \
            [True, True, False]

    def test_tenant_counters_are_namespaced_metrics(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            client.submit_values(space="codesign", indices=[0, 1, 2],
                                 tenant="t1")
            client.submit_values(space="codesign", indices=[1, 2, 3],
                                 tenant="t2")
            stats = client.stats()
        assert stats["tenants"]["t1"] == {"misses": 3.0}
        assert stats["tenants"]["t2"] == {"hits": 2.0, "misses": 1.0}
        # The registry IS the store: the same counts live under the
        # namespaced metric names.
        snapshot = handle.server.metrics.snapshot()
        assert snapshot["engine.cache.tenant.t2.hits"]["value"] == 2.0

    def test_cache_totals_reported(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            client.submit_values(space="codesign", indices=[0, 1])
            client.submit_values(space="codesign", indices=[0, 1])
            stats = client.stats()
        assert stats["cache"]["hits"] >= 2
        assert stats["cache"]["misses"] >= 2


class TestLaneStats:
    def test_each_lane_counts_only_its_own_oracle_calls(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            client.submit_values(space="codesign", indices=[0, 1, 2])
            client.submit_values(space="codesign", indices=[3],
                                 objective="mission_objective")
            lanes = client.stats()["lanes"]
        assert lanes["suite_objective"]["oracle_calls"] == 3
        assert lanes["mission_objective"]["oracle_calls"] == 1


class TestAdmissionControl:
    def test_per_tenant_inflight_cap(self, daemon):
        handle = daemon(max_wait_ms=10.0, max_inflight=4)
        with handle.client() as client:
            envelope = client.submit(space="codesign",
                                     indices=list(range(5)),
                                     tenant="greedy")
        assert envelope["ok"] is False
        assert envelope["error"] == "overloaded"
        assert "retry_after_ms" in envelope

    def test_queue_full_rejects_new_misses(self, daemon):
        handle = daemon(max_wait_ms=60_000.0, max_batch=1024,
                        max_queue=4)
        parked = {}

        def parker():
            with handle.client(timeout=120.0) as client:
                parked["values"] = client.submit_values(
                    space="codesign", indices=[0, 1, 2, 3],
                    tenant="parker")

        thread = threading.Thread(target=parker)
        thread.start()
        # Wait until the parker's misses occupy the whole queue.
        deadline = time.monotonic() + 30
        with handle.client() as client:
            while time.monotonic() < deadline:
                if client.stats()["serve"]["queue_depth"] >= 4:
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("queue never filled")
            rejected = client.submit(space="codesign", indices=[8, 9],
                                     tenant="latecomer")
        assert rejected["ok"] is False
        assert rejected["error"] == "overloaded"
        assert "queue" in rejected["detail"]

        # Shutdown drains the parked batch; the parker still gets
        # correct values.
        handle.stop()
        thread.join(timeout=60)
        assert parked["values"] == serial_values([0, 1, 2, 3])

    def test_draining_rejects_new_submissions(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        handle.server.draining = True
        with handle.client() as client:
            envelope = client.submit(space="codesign", indices=[0])
        assert envelope["ok"] is False
        assert envelope["error"] == "draining"


class TestRobustness:
    def test_disconnect_mid_batch_leaves_server_healthy(self, daemon):
        handle = daemon(max_wait_ms=300.0, max_batch=1024)
        # A raw socket fires a submission and vanishes without reading
        # the response.
        ghost = socket.create_connection(("127.0.0.1", handle.port))
        ghost.sendall(encode_line({"op": "submit", "space": "codesign",
                                   "indices": [0, 1], "tenant": "g"}))
        ghost.close()
        # An honest client overlapping the ghost's candidates still
        # gets correct values, and the server keeps answering.
        with handle.client() as client:
            values = client.submit_values(space="codesign",
                                          indices=[0, 1, 2])
            assert values == serial_values([0, 1, 2])
            assert client.ping()

    def test_malformed_line_is_bad_request(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            envelope = client.request({"op": "ping"})
            assert envelope["ok"]
            bad = client.submit(candidates=[{"x": 1}],
                                space="codesign", indices=[0])
        assert bad["ok"] is False
        assert bad["error"] == "bad_request"

    def test_raw_garbage_is_bad_request_not_a_crash(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        raw = socket.create_connection(("127.0.0.1", handle.port))
        try:
            raw.sendall(b"this is not json\n")
            reply = raw.makefile("rb").readline()
        finally:
            raw.close()
        envelope = json.loads(reply)
        assert envelope["ok"] is False
        assert envelope["error"] == "bad_request"
        with handle.client() as client:
            assert client.ping()

    @pytest.mark.parametrize("no_coalesce", [False, True])
    def test_oracle_exception_answers_with_error_envelope(
            self, daemon, no_coalesce):
        handle = daemon(max_wait_ms=10.0)
        handle.server.lane("mission_objective").evaluator.objective = \
            Exploding()
        with handle.client(timeout=10.0) as client:
            envelope = client.submit(space="codesign", indices=[0, 1],
                                     objective="mission_objective",
                                     no_coalesce=no_coalesce)
            assert envelope["ok"] is False
            assert envelope["error"] == "internal"
            assert "kernel exploded" in envelope["detail"]
            # The daemon and the connection survive the failure.
            assert client.ping()
            assert client.submit_values(space="codesign",
                                        indices=[2]) == serial_values([2])

    def test_stats_dashboard_shape(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            client.submit_values(space="codesign", indices=[0])
            stats = client.stats()
        serve = stats["serve"]
        assert serve["requests"] == 1
        assert serve["candidates"] == 1
        assert serve["queue_depth"] == 0
        assert serve["request_latency_s"]["count"] == 1
        assert serve["request_latency_s"]["p99"] >= \
            serve["request_latency_s"]["p50"] >= 0
        assert stats["lanes"]["suite_objective"]["oracle_calls"] == 1

    def test_shutdown_op_stops_the_daemon(self, daemon):
        handle = daemon(max_wait_ms=10.0)
        with handle.client() as client:
            assert client.shutdown()
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()
