"""ResultCache: memory/disk round-trips, codecs, stats, corruption."""

import json

import pytest

from repro.engine import ResultCache
from repro.errors import EngineError


class TestMemoryLevel:
    def test_miss_then_hit(self):
        cache = ResultCache()
        hit, value = cache.get("k")
        assert not hit and value is None
        cache.put("k", 42.0)
        hit, value = cache.get("k")
        assert hit and value == 42.0
        assert cache.stats() == {"entries": 1, "hits": 1,
                                 "misses": 1, "disk_hits": 0,
                                 "evictions": 0}

    def test_clear(self):
        cache = ResultCache()
        cache.put("k", 1)
        cache.clear()
        assert len(cache) == 0
        assert not cache.get("k")[0]


class TestBoundedMemory:
    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "a" is now most recently used
        cache.put("c", 3)  # evicts "b"
        assert cache.get("a")[0]
        assert not cache.get("b")[0]
        assert cache.get("c")[0]
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_put_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # re-put refreshes "a", not a growth
        cache.put("c", 3)  # evicts "b"
        assert cache.get("a") == (True, 10)
        assert not cache.get("b")[0]

    def test_eviction_never_loses_disk_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_entries=1)
        cache.put("a", 1)
        cache.put("b", 2)  # "a" evicted from memory, not from disk
        assert cache.stats()["evictions"] == 1
        hit, value = cache.get("a")
        assert hit and value == 1
        assert cache.stats()["disk_hits"] == 1

    def test_invalid_bound_rejected(self):
        with pytest.raises(EngineError):
            ResultCache(max_entries=0)


class TestMetricsPublishing:
    def test_counters_emitted(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        cache = ResultCache(max_entries=1, metrics=registry)
        cache.get("a")  # miss
        cache.put("a", 1)
        cache.get("a")  # hit
        cache.put("b", 2)  # evicts "a"
        assert registry.counter("engine.cache.misses").value == 1
        assert registry.counter("engine.cache.hits").value == 1
        assert registry.counter("engine.cache.evictions").value == 1


class TestDiskLevel:
    def test_round_trip_across_instances(self, tmp_path):
        first = ResultCache(str(tmp_path))
        first.put("deadbeef", {"v": 1.25})
        second = ResultCache(str(tmp_path))  # cold memory, warm disk
        hit, value = second.get("deadbeef")
        assert hit and value == {"v": 1.25}
        assert second.stats()["disk_hits"] == 1
        # Promoted: the next lookup stays in memory.
        second.get("deadbeef")
        assert second.stats()["disk_hits"] == 1 and second.stats()["hits"] == 2

    def test_infinity_round_trips(self, tmp_path):
        first = ResultCache(str(tmp_path))
        first.put("inf", float("inf"))
        hit, value = ResultCache(str(tmp_path)).get("inf")
        assert hit and value == float("inf")

    def test_codec(self, tmp_path):
        encode = lambda v: {"real": v.real, "imag": v.imag}  # noqa: E731
        decode = lambda d: complex(d["real"], d["imag"])  # noqa: E731
        first = ResultCache(str(tmp_path), encode=encode, decode=decode)
        first.put("z", complex(1, 2))
        second = ResultCache(str(tmp_path), encode=encode, decode=decode)
        hit, value = second.get("z")
        assert hit and value == complex(1, 2)

    def test_corrupt_entry_raises(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("bad", 1)
        (tmp_path / "bad.json").write_text("{not json")
        fresh = ResultCache(str(tmp_path))
        with pytest.raises(EngineError):
            fresh.get("bad")

    def test_disk_files_are_self_describing(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("abc123", 7)
        document = json.loads((tmp_path / "abc123.json").read_text())
        assert document == {"key": "abc123", "value": 7}

    def test_clear_disk(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", 1)
        cache.clear(disk=True)
        assert not list(tmp_path.glob("*.json"))
        assert not ResultCache(str(tmp_path)).get("k")[0]
