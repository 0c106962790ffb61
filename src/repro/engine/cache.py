"""Content-addressed result cache: in-memory always, on-disk optionally.

Keys are :func:`repro.engine.fingerprint.fingerprint` digests, so a
cache directory can be shared between runs, strategies, and processes:
any evaluation of a structurally identical candidate under the same
evaluator context resolves to the same file.

Values must round-trip through JSON.  For richer values (e.g.
:class:`~repro.benchmarksuite.runner.BenchmarkRow`) pass ``encode`` /
``decode`` callables; floats survive exactly (Python's ``json`` emits
shortest round-trip representations, and ``inf`` is legal).

Long-running processes (the ``repro serve`` daemon) can bound the
resident memory level with ``max_entries``: the least recently used
entry is evicted on overflow.  Eviction touches only the memory level —
entries persisted to a cache directory stay on disk and are promoted
back on the next lookup, so a bounded cache trades re-read cost for
memory, never correctness.  The cache counts lookups only in its
metrics registry (the one passed as ``metrics``, or a private one):
``engine.cache.hits`` / ``.misses`` / ``.disk_hits`` / ``.evictions``.
:meth:`ResultCache.stats` is a read-only view of those counters (the
serve layer additionally namespaces hits and misses by tenant label).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, List, Mapping,
                    Optional, Tuple)

from repro.errors import EngineError
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["ResultCache"]

_MISS = object()


class ResultCache:
    """A two-level (memory, optional disk) store of evaluation results.

    Args:
        directory: When given, every entry is also persisted as
            ``<directory>/<key>.json`` and lookups fall through to disk
            on a memory miss (then promote).  The directory is created
            on first write.
        encode: Value -> JSON-able structure (default: identity).
        decode: JSON-able structure -> value (default: identity).
        max_entries: Bound on the in-memory level (``None`` =
            unbounded).  On overflow the least recently used entry is
            evicted (``engine.cache.evictions`` counts them); the disk
            level, when enabled, is never evicted.
        metrics: Registry that stores the ``engine.cache.*`` counters
            (a private one by default).  Its four counters are
            registered on construction.

    Attributes:
        metrics: The registry holding this cache's counters:
            ``engine.cache.hits`` (lookups answered from memory or
            disk), ``.misses`` (answered by neither), ``.disk_hits``
            (the subset of hits that had to touch disk) and
            ``.evictions`` (memory-level entries dropped by the
            ``max_entries`` bound).
    """

    def __init__(self, directory: Optional[str] = None, *,
                 encode: Optional[Callable[[Any], Any]] = None,
                 decode: Optional[Callable[[Any], Any]] = None,
                 max_entries: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None):
        if max_entries is not None and max_entries < 1:
            raise EngineError(
                f"max_entries must be >= 1 (got {max_entries})")
        self._memory: Dict[str, Any] = {}
        self.directory = Path(directory) if directory else None
        self._encode = encode if encode is not None else (lambda v: v)
        self._decode = decode if decode is not None else (lambda v: v)
        self.max_entries = max_entries
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self._hits, self._misses, self._disk_hits, self._evictions = (
            self.metrics.counter(f"engine.cache.{name}")
            for name in ("hits", "misses", "disk_hits", "evictions"))

    def __len__(self) -> int:
        return len(self._memory)

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def _touch(self, key: str, value: Any) -> None:
        """Move ``key`` to the most-recently-used end (dicts preserve
        insertion order, so re-insertion is the LRU bookkeeping)."""
        if self.max_entries is not None:
            self._memory.pop(key, None)
        self._memory[key] = value

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)`` for ``key`` (``(False, None)`` on a miss)."""
        value = self._memory.get(key, _MISS)
        if value is not _MISS:
            self._touch(key, value)
            self._hits.inc()
            return True, value
        if self.directory is not None:
            path = self._path(key)
            if path.exists():
                try:
                    with open(path) as handle:
                        document = json.load(handle)
                    value = self._decode(document["value"])
                except (json.JSONDecodeError, KeyError, OSError) as error:
                    raise EngineError(
                        f"corrupt cache entry {path}: {error}"
                    ) from error
                self._insert(key, value)
                self._hits.inc()
                self._disk_hits.inc()
                return True, value
        self._misses.inc()
        return False, None

    def get_many(self, keys: Iterable[str]
                 ) -> Tuple[Dict[str, Any], List[str]]:
        """Probe ``keys`` in order with :meth:`get` (same counts, LRU
        touch order and disk fall-through).  Returns ``(hits, misses)``:
        the values found by key, and the keys missed, in probe order."""
        found: Dict[str, Any] = {}
        missed: List[str] = []
        get = self.get
        for key in keys:
            hit, value = get(key)
            if hit:
                found[key] = value
            else:
                missed.append(key)
        return found, missed

    def _insert(self, key: str, value: Any) -> None:
        """Memory-level insert with LRU eviction at ``max_entries``."""
        self._touch(key, value)
        if self.max_entries is None:
            return
        while len(self._memory) > self.max_entries:
            oldest = next(iter(self._memory))
            del self._memory[oldest]
            self._evictions.inc()

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (memory, and disk when enabled).

        Disk writes are atomic (temp file + rename) so a cache directory
        shared by parallel workers never exposes torn entries.  The
        entry is encoded in one ``json.dumps`` and written in one call;
        the directory is (re)created only when the temp file cannot be
        made in it.
        """
        self._insert(key, value)
        if self.directory is None:
            return
        data = json.dumps({"key": key, "value": self._encode(value)}
                          ).encode("utf-8")
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        except FileNotFoundError:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def put_many(self, entries: Mapping[str, Any]) -> None:
        """Store every ``key -> value`` of ``entries``, in order.

        The cache ends exactly as a loop of :meth:`put` would leave it:
        the same memory level and LRU order, the same evictions and
        counters, and on disk one atomic ``<key>.json`` per entry
        (written by :meth:`put`).  An unbounded memory-only cache takes
        the whole window in one ``dict.update``: unbounded puts never
        move an existing key nor evict.
        """
        if self.directory is not None:
            put = self.put
            for key, value in entries.items():
                put(key, value)
        elif self.max_entries is None:
            self._memory.update(entries)
        else:
            insert = self._insert
            for key, value in entries.items():
                insert(key, value)

    def clear(self, *, disk: bool = False) -> None:
        """Drop the in-memory level (and the disk level when asked)."""
        self._memory.clear()
        if disk and self.directory is not None and self.directory.exists():
            for path in self.directory.glob("*.json"):
                path.unlink()

    def stats(self) -> Dict[str, int]:
        """Current entry count plus a view of the hit/miss counters."""
        return {
            "entries": len(self._memory),
            "hits": int(self._hits.value),
            "misses": int(self._misses.value),
            "disk_hits": int(self._disk_hits.value),
            "evictions": int(self._evictions.value),
        }
