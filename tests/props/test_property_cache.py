"""Property tests for bulk cache writes.

``ResultCache.put_many(entries)`` must leave a cache exactly as a loop
of ``put`` over the same entries would: the same memory-level keys,
values and LRU order, the same ``max_entries`` evictions and
``engine.cache.*`` counters and, with a directory, the same
``<key>.json`` files with the same bytes.
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import ResultCache

_keys = st.sampled_from("abcdefgh")
_values = st.one_of(st.floats(allow_nan=False), st.integers(),
                    st.text(max_size=3), st.none(),
                    st.lists(st.floats(allow_nan=False), max_size=2))


def _files(directory):
    if directory is None:
        return None
    return {path.name: path.read_bytes()
            for path in sorted(Path(directory).iterdir())}


def _primed(directory, max_entries, stored):
    cache = ResultCache(directory, max_entries=max_entries)
    for key, value in stored:
        cache.put(key, value)
    cache.get("a")  # a probe: counters and LRU order have history
    return cache


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_keys, _values), max_size=8),
       st.dictionaries(_keys, _values, max_size=8),
       st.sampled_from([None, 1, 2, 3, 5]), st.booleans())
@example([("a", 1.0)], {}, None, False)  # an empty window
@example([("a", 1.0)], {}, 2, True)
@example([("a", 1.0), ("b", 2.0)], {"b": 3.0}, 3, False)  # re-put
@example([("a", 1.0), ("b", 2.0)], {"b": 3.0}, None, True)
@example([("a", 1.0), ("b", 2.0)], {"c": 3.0, "a": 4.0}, 2, False)
@example([("a", 1.0)], {"b": 2.0, "c": 3.0, "d": 4.0}, 2, True)
@example([("a", 1.0), ("b", 2.0)], dict(zip("cdefg", range(5))), 3,
         False)  # more entries than max_entries
@example([("a", 1.0)], {"b": 2.0, "a": 3.0, "c": 4.0}, 1, False)
@example([], {"b": 2.0, "c": 3.0}, 1, True)  # max_entries=1
def test_put_many_matches_a_put_loop(stored, entries, max_entries,
                                     on_disk):
    with tempfile.TemporaryDirectory() as one, \
            tempfile.TemporaryDirectory() as two:
        looped = _primed(one if on_disk else None, max_entries, stored)
        bulk = _primed(two if on_disk else None, max_entries, stored)
        for key, value in entries.items():
            looped.put(key, value)
        bulk.put_many(entries)
        assert list(bulk._memory.items()) == list(looped._memory.items())
        assert bulk.stats() == looped.stats()
        assert bulk.metrics.snapshot() == looped.metrics.snapshot()
        assert _files(bulk.directory) == _files(looped.directory)
