"""Property tests for index-decoded populations.

A :class:`~repro.dse.space.Population` must be indistinguishable from
decoding its indices one by one, its bulk-derived cache keys must equal
``key_for`` byte for byte, and ``ResultCache.get_many`` must leave a
cache exactly as a loop of ``get`` would.
"""

import enum
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dse.space import DesignSpace, Parameter, Population
from repro.engine import Evaluator, ResultCache
from repro.errors import SearchError
from repro.serve.protocol import evaluator_context
from repro.spec.registry import OBJECTIVES, SPACES


class Mode(enum.Enum):
    FAST = 1
    SLOW = 2


def build(spec):
    """A space from ``[(name, values), ...]``."""
    return DesignSpace([Parameter(name, tuple(values))
                        for name, values in spec])


def zero(candidate):
    return 0.0


_scalars = st.one_of(
    st.integers(min_value=-10 ** 20, max_value=10 ** 20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.booleans())
_parameters = st.lists(
    st.tuples(st.text(max_size=5),
              st.lists(_scalars, min_size=1, max_size=4, unique_by=repr)),
    min_size=1, max_size=4, unique_by=lambda p: p[0])

#: Fixed cases: names needing JSON escapes, names sorting differently
#: from their declaration order, a one-parameter space, mixed value
#: types, and duplicate indices in one batch.
_ESCAPES = [('z"q', (1, 2)), ("a\\b", ("x", "é")), ("\n", (True, False)),
            ("é", (0.5, -0.0, 1e300))]
_UNSORTED = [("zeta", (1, 2, 3)), ("alpha", (1.5, 2.5)), ("Mid", ("a",))]
_ONE = [("only", (3, 1, 2))]


@settings(max_examples=60, deadline=None)
@given(_parameters, st.data())
@example(_ESCAPES, None)
@example(_UNSORTED, None)
@example(_ONE, None)
def test_configs_equal_config_at_and_keys_equal_key_for(spec, data):
    space = build(spec)
    if data is None:  # fixed examples: every index, then repeats
        indices = list(range(space.size)) + [0, space.size - 1, 0]
    else:
        indices = data.draw(st.lists(
            st.integers(min_value=0, max_value=space.size - 1),
            max_size=12))
    population = space.configs(indices)
    expected = [space.config_at(i) for i in indices]
    assert isinstance(population, Population)
    assert population == expected
    assert [list(c) for c in population] == [list(c) for c in expected]
    assert population.indices.tolist() == indices
    half = population[1:]
    assert isinstance(half, Population)
    assert half.indices.tolist() == indices[1:]
    evaluator = Evaluator(zero, context={"task": "props", "n": len(spec)})
    for tier in (None, "screen"):
        assert evaluator.keys_for(population, tier) == \
            [evaluator.key_for(c, tier) for c in expected]
    assert [r.key for r in evaluator.map_batch(population)] == \
        [evaluator.key_for(c) for c in expected]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SPACES)), st.sampled_from(sorted(OBJECTIVES)),
       st.data())
def test_registered_space_keys_equal_key_for(space_name, objective_name,
                                             data):
    space = SPACES.build(space_name)
    indices = data.draw(st.lists(
        st.integers(min_value=0, max_value=space.size - 1), max_size=20))
    population = space.configs(indices)
    assert population == [space.config_at(i) for i in indices]
    evaluator = Evaluator(OBJECTIVES.get(objective_name),
                          context=evaluator_context(objective_name))
    for tier in (None, "pricing", "roofline"):
        assert evaluator.keys_for(population, tier) == \
            [evaluator.key_for(c, tier) for c in population]


@pytest.mark.parametrize("odd", [
    float("nan"), np.int64(3), np.float32(0.25), Mode.FAST,
])
def test_non_plain_values_fall_back_to_key_for(odd):
    space = build([("b", (1, 2)), ("a", (odd, "plain"))])
    population = space.configs([0, 1, 2, 3, 1])
    assert population.canonical_json() is None
    evaluator = Evaluator(zero, context="ctx")
    for tier in (None, "screen"):
        assert evaluator.keys_for(population, tier) == \
            [evaluator.key_for(c, tier) for c in population]


def test_non_str_names_fall_back_to_key_for():
    population = build([(2, (1, 2)), (10, (3,))]).configs([1, 0])
    assert population.canonical_json() is None
    evaluator = Evaluator(zero)
    assert evaluator.keys_for(population) == \
        [evaluator.key_for(c) for c in population]


@pytest.mark.parametrize("bad", [-1, 12, 10 ** 30])
def test_out_of_range_indices_raise_config_ats_error(bad):
    space = build([("x", (1, 2, 3)), ("y", (1, 2, 3, 4))])
    with pytest.raises(SearchError) as expected:
        space.config_at(bad)
    with pytest.raises(SearchError) as raised:
        space.configs([0, bad, -5])
    assert str(raised.value) == str(expected.value)


def test_population_is_read_only_and_copies_are_lists():
    import copy
    import pickle

    population = build(_ONE).configs([0, 2, 2])
    for edit in (lambda p: p.append({}), lambda p: p.sort(),
                 lambda p: p.__setitem__(0, {})):
        with pytest.raises(TypeError):
            edit(population)
    for other in (list(population), population + [], copy.copy(population),
                  pickle.loads(pickle.dumps(population))):
        assert type(other) is list and other == population


def test_copied_spaces_key_like_fresh_ones():
    import copy
    import pickle

    evaluator = Evaluator(zero)
    for spec in (_UNSORTED, [("a", (float("nan"), 1))]):
        space = build(spec)
        before = evaluator.keys_for(space.configs([0, 1]))  # memo filled
        for clone in (pickle.loads(pickle.dumps(space)),
                      copy.deepcopy(space)):
            assert evaluator.keys_for(clone.configs([0, 1])) == before


def test_spaces_beyond_int64_decode_exactly():
    space = build([(f"p{i}", tuple(range(16))) for i in range(20)])
    assert space.size == 16 ** 20
    indices = [0, space.size - 1, 12345678901234567890123]
    assert space.configs(indices) == [space.config_at(i) for i in indices]
    evaluator = Evaluator(zero)
    population = space.configs(indices)
    assert evaluator.keys_for(population) == \
        [evaluator.key_for(c) for c in population]


def _filled(directory, max_entries, stored):
    cache = ResultCache(directory, max_entries=max_entries)
    for key in stored:
        cache.put(key, f"v{key}")
    return cache


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("abcdefgh"), max_size=8, unique=True),
       st.lists(st.sampled_from("abcdefghij"), max_size=16),
       st.sampled_from([None, 1, 2, 3]), st.booleans(), st.booleans())
@example(list("abc"), list("aabxcbaa"), 2, True, True)
def test_get_many_matches_a_get_loop(stored, probes, max_entries,
                                     on_disk, evict_memory):
    with tempfile.TemporaryDirectory() as one, \
            tempfile.TemporaryDirectory() as two:
        looped = _filled(one if on_disk else None, max_entries, stored)
        bulk = _filled(two if on_disk else None, max_entries, stored)
        if evict_memory:  # disk entries must be found again
            looped.clear()
            bulk.clear()
        found, missed = {}, []
        for key in probes:
            hit, value = looped.get(key)
            if hit:
                found[key] = value
            else:
                missed.append(key)
        assert bulk.get_many(probes) == (found, missed)
        assert bulk.stats() == looped.stats()
        assert list(bulk._memory.items()) == list(looped._memory.items())
