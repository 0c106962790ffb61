"""The column view a cold screen prices from.

A :class:`~repro.dse.space.Population` keeps the digits it was decoded
with, and ``column(name)`` must equal reading the dicts, value and
dtype.  The co-design encode and the mission tier-0 screen must give
the same bits from a Population as from a plain list, and platform
names must equal the formatted tuple while being formatted only when
read.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.objectives import (MissionObjective, build_platform,
                                  codesign_space, codesign_space_xl,
                                  encode_codesign)
from repro.dse.space import DesignSpace, Parameter
from repro.hw.batch import LazyNames, PlatformSoA

_values = st.one_of(
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=4,
             unique_by=repr),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4, unique=True),
    st.lists(st.one_of(st.integers(-5, 5), st.floats(-2, 2)),
             min_size=1, max_size=4, unique_by=repr),
    st.lists(st.text(max_size=2), min_size=1, max_size=3, unique=True))


@settings(max_examples=60, deadline=None)
@given(st.lists(_values, min_size=1, max_size=3), st.data())
def test_column_equals_reading_the_dicts(columns, data):
    space = DesignSpace([Parameter(f"p{i}", tuple(values))
                         for i, values in enumerate(columns)])
    indices = data.draw(st.lists(st.integers(0, space.size - 1),
                                 max_size=10))
    population = space.configs(indices)
    lo = data.draw(st.integers(0, len(indices)))
    for view in (population, population[lo:], population[::-1]):
        assert view.digits() == space._digit_columns(view.indices)
        for name in space._names:
            expected = np.array([config[name] for config in view])
            column = view.column(name)
            assert column.dtype == expected.dtype
            assert column.tolist() == expected.tolist()


@pytest.mark.parametrize("space", [codesign_space(), codesign_space_xl()])
def test_encode_is_bit_equal_from_population_and_list(space):
    population = space.configs(
        np.random.default_rng(5).integers(0, space.size, 300))
    fast = encode_codesign(population)
    plain = encode_codesign(list(population))
    reference = PlatformSoA.from_configs(
        [build_platform(config).config for config in population])
    for field in dataclasses.fields(PlatformSoA):
        lhs = getattr(fast, field.name)
        for rhs in (getattr(plain, field.name),
                    getattr(reference, field.name)):
            if field.name == "names":
                assert lhs == rhs and rhs == lhs
            else:
                assert lhs.dtype == rhs.dtype, field.name
                assert np.array_equal(lhs, rhs), field.name


def test_screen_is_bit_equal_from_population_and_list():
    objective = MissionObjective()
    space = codesign_space_xl()
    population = space.configs(
        np.random.default_rng(9).integers(0, space.size, 257))
    assert objective.pricing_screen_batch(population) == \
        objective.pricing_screen_batch(list(population))


def test_names_are_formatted_only_when_read():
    population = codesign_space().configs([0, 5, 255])
    names = encode_codesign(population).names
    assert isinstance(names, LazyNames)
    assert len(names) == 3 and names._names is None
    expected = tuple(build_platform(config).name for config in population)
    assert names == expected and expected == names
    assert names._names is not None
    assert names[1] == expected[1] and list(names) == list(expected)
    assert hash(names) == hash(expected)
    assert repr(names) == repr(expected)
    assert pickle.loads(pickle.dumps(names)) == expected
    assert type(pickle.loads(pickle.dumps(names))) is tuple
    assert names != expected[:2] and names != list(expected)
