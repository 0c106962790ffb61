"""Property tests: numpy arrays fingerprint the same through the
per-element reduction and the direct ``tolist`` shortcut.

``_canonical`` lists bool, int and NaN-free float arrays directly; the
reference below is the per-element reduction every array went through
before, so persisted cache keys must not move.
"""

import hashlib
import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

fingerprint_module = importlib.import_module("repro.engine.fingerprint")


def _recursive_fingerprint(obj):
    """The fingerprint with every array reduced element by element."""
    def reduce(value):
        if isinstance(value, np.ndarray):
            return {"__ndarray__": list(value.shape),
                    "values": fingerprint_module._canonical(
                        value.tolist())}
        if isinstance(value, dict):
            return {key: reduce(item) for key, item in value.items()}
        return fingerprint_module._canonical(value)

    text = json.dumps(reduce(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                           max_side=4)
_arrays = st.one_of(
    hnp.arrays(np.bool_, _shapes),
    hnp.arrays(np.int64, _shapes),
    hnp.arrays(np.uint8, _shapes),
    hnp.arrays(np.float64, _shapes,
               elements=st.floats(allow_nan=True, allow_infinity=True)),
    hnp.arrays(np.float32, _shapes,
               elements=st.floats(width=32, allow_nan=True,
                                  allow_infinity=True)),
)


@settings(max_examples=200, deadline=None)
@given(_arrays)
def test_array_fingerprint_matches_recursive_encoding(array):
    assert fingerprint_module.fingerprint({"a": array}) == \
        _recursive_fingerprint({"a": array})


@pytest.mark.parametrize("array", [
    np.array([]),
    np.zeros((0, 3)),
    np.array(2.5),
    np.array(-0.0),
    np.array(7),
    np.arange(6).reshape(2, 3),
    np.array([[True, False], [False, True]]),
    np.array([1.0, np.inf, -np.inf, -0.0]),
    np.array([[1.0, np.nan], [-0.0, np.inf]]),
    np.array([1.5, 2.5], dtype=np.longdouble),
], ids=["empty", "empty-2d", "0-d", "0-d-negzero", "0-d-int", "int-2d",
        "bool", "inf-negzero", "nan-2d", "longdouble"])
def test_edge_arrays_match_recursive_encoding(array):
    assert fingerprint_module.fingerprint({"a": array}) == \
        _recursive_fingerprint({"a": array})
