"""Chunked streaming evaluation: values, order, seeds, telemetry.

The contract under test: ``chunk_size`` changes only the peak working
set, never the results — values, result order, cache keys, and
per-candidate seeds are identical to the unchunked run, and seeds are
fingerprint-derived so they are also invariant to transport (serial,
pickled process pool) and batch composition.
"""

import pytest

from repro.engine.evaluator import Evaluator
from repro.errors import EngineError
from repro.telemetry.metrics import MetricsRegistry


def _square(candidate):
    return candidate * candidate


def _seeded(candidate, seed):
    return (candidate, seed)


class _Batchable:
    """Batch objective that records the window sizes it was given."""

    def __init__(self):
        self.windows = []

    def __call__(self, candidate):
        return candidate * candidate

    def evaluate_batch(self, candidates):
        self.windows.append(len(candidates))
        return [c * c for c in candidates]


class TestChunkedValues:
    def test_chunked_results_identical_to_unchunked(self):
        candidates = list(range(17))
        plain = Evaluator(_square).map_batch(candidates)
        chunked = Evaluator(_square, chunk_size=5).map_batch(candidates)
        assert [r.value for r in chunked] == [r.value for r in plain]
        assert [r.key for r in chunked] == [r.key for r in plain]
        assert [r.seed for r in chunked] == [r.seed for r in plain]

    def test_chunking_windows_the_batch_objective(self):
        objective = _Batchable()
        evaluator = Evaluator(objective, chunk_size=4)
        results = evaluator.map_batch(list(range(10)))
        assert objective.windows == [4, 4, 2]
        assert [r.value for r in results] == [c * c for c in range(10)]
        assert evaluator.stats()["chunks"] == 3

    def test_chunk_size_larger_than_batch_is_one_chunk(self):
        evaluator = Evaluator(_square, chunk_size=100)
        evaluator.map_batch(list(range(5)))
        assert evaluator.stats()["chunks"] == 1

    def test_cached_candidates_do_not_consume_chunks(self):
        evaluator = Evaluator(_square, chunk_size=2)
        evaluator.map_batch([1, 2, 3, 4])
        chunks_before = evaluator.stats()["chunks"]
        evaluator.map_batch([1, 2, 3, 4])  # fully cache-warm
        assert evaluator.stats()["chunks"] == chunks_before

    def test_chunk_size_validation(self):
        with pytest.raises(EngineError):
            Evaluator(_square, chunk_size=0)
        with pytest.raises(EngineError):
            Evaluator(_square, chunk_size=-3)

    def test_stats_report_chunks(self):
        evaluator = Evaluator(_square, chunk_size=2)
        evaluator.map_batch([1, 2, 3])
        assert evaluator.stats()["chunks"] == 2


class TestChunkTelemetry:
    def test_counters_and_occupancy_published(self):
        metrics = MetricsRegistry()
        evaluator = Evaluator(_square, chunk_size=4, metrics=metrics)
        evaluator.map_batch(list(range(10)))
        snapshot = metrics.snapshot()
        assert snapshot["engine.chunks"]["value"] == 3
        occupancy = snapshot["engine.chunk_occupancy"]
        assert occupancy["count"] == 3
        # Windows of 4, 4, 2 -> occupancies 1.0, 1.0, 0.5.
        assert occupancy["mean"] == pytest.approx(2.5 / 3)
        assert occupancy["min"] == pytest.approx(0.5)
        assert occupancy["max"] == pytest.approx(1.0)

    def test_no_chunk_metrics_without_chunk_size(self):
        metrics = MetricsRegistry()
        Evaluator(_square, metrics=metrics).map_batch([1, 2, 3])
        assert "engine.chunks" not in metrics.snapshot()


class TestSeedTransportInvariance:
    """Satellite (f): per-candidate seeds are a pure function of
    (base seed, content fingerprint) — never batch position — so they
    are identical across chunking, process-pool sharding, and
    transport."""

    def test_seed_is_fingerprint_derived(self):
        evaluator = Evaluator(_square, seed=42)
        key = evaluator.key_for(7)
        expected = (42 ^ int(key[:16], 16)) & ((1 << 63) - 1)
        assert evaluator.seed_for(key) == expected

    def test_seeds_identical_across_batch_composition(self):
        one = Evaluator(_square, seed=9)
        other = Evaluator(_square, seed=9)
        alone = one.map_batch([5])[0]
        crowded = other.map_batch([1, 2, 3, 4, 5])[-1]
        assert alone.seed == crowded.seed

    def test_seeds_identical_serial_parallel_and_chunked(self):
        candidates = list(range(8))
        serial = Evaluator(_seeded, seeded=True, seed=3)
        pooled = Evaluator(_seeded, seeded=True, seed=3, jobs=2)
        chunked = Evaluator(_seeded, seeded=True, seed=3, chunk_size=3)
        a = serial.map_batch(candidates)
        b = pooled.map_batch(candidates)
        c = chunked.map_batch(candidates)
        assert [r.seed for r in a] == [r.seed for r in b] \
            == [r.seed for r in c]
        # The seeded objective echoes its seed: the *values* prove the
        # workers actually used the same per-candidate seeds.
        assert [r.value for r in a] == [r.value for r in b] \
            == [r.value for r in c]
