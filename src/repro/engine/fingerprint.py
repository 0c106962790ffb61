"""Canonical fingerprints: content addresses for candidates and specs.

The evaluation engine caches results by *what was evaluated*, not by
object identity, so two structurally identical candidates — built in
different processes, with dict keys inserted in different orders, or
round-tripped through JSON — must hash to the same key.  This module
defines that canonical form:

- dicts are emitted with sorted keys; tuples and lists are equivalent;
  sets are sorted by their canonical encoding;
- enums, numpy scalars, and numpy arrays are reduced to tagged plain
  values;
- dataclasses are encoded as ``{"__dataclass__": <type>, <fields...>}``;
- any object may opt in by implementing ``fingerprint_spec()`` returning
  a JSON-able description of everything that affects its evaluation
  semantics (see :class:`repro.hw.platform.Platform` and
  :class:`repro.hw.mapping.HeterogeneousSoC`).

The fingerprint is the SHA-256 of the canonical JSON.  Stability across
process boundaries follows from the encoding depending only on values,
never on ``id()``, ``hash()`` randomization, or insertion order.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from typing import Any, Optional

from repro.errors import EngineError

__all__ = ["canonical_json", "fingerprint", "try_fast_json"]

try:  # numpy is a hard dependency of the repo, but keep the import soft
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is always present in CI
    _np = None


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-able structure with deterministic form."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # json emits NaN/Infinity tokens deterministically; tag NaN so
        # the (ill-advised) NaN candidate still gets a stable address.
        if math.isnan(obj):
            return {"__float__": "nan"}
        return obj
    if _np is not None:
        if isinstance(obj, _np.bool_):
            return bool(obj)
        if isinstance(obj, _np.integer):
            return int(obj)
        if isinstance(obj, _np.floating):
            return _canonical(float(obj))
        if isinstance(obj, _np.ndarray):
            # Bool, int and NaN-free float arrays list as plain Python
            # scalars that _canonical maps to themselves: skip the
            # per-element recursion (same canonical JSON).  Long
            # doubles list as numpy scalars, so they recurse.
            if obj.dtype.kind in "biu" or (
                    obj.dtype.kind == "f" and obj.itemsize <= 8
                    and not _np.isnan(obj).any()):
                return {"__ndarray__": list(obj.shape),
                        "values": obj.tolist()}
            return {"__ndarray__": list(obj.shape),
                    "values": _canonical(obj.tolist())}
    if isinstance(obj, enum.Enum):
        return {"__enum__": f"{type(obj).__name__}.{obj.name}"}
    if isinstance(obj, dict):
        encoded = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                key = json.dumps(_canonical(key), sort_keys=True)
            if key in encoded:
                raise EngineError(
                    f"fingerprint: key collision on {key!r} after"
                    f" canonicalization"
                )
            encoded[key] = _canonical(value)
        return encoded
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        items = [_canonical(item) for item in obj]
        items.sort(key=lambda i: json.dumps(i, sort_keys=True))
        return {"__set__": items}
    spec = getattr(obj, "fingerprint_spec", None)
    if callable(spec):
        return {"__spec__": type(obj).__name__,
                "spec": _canonical(spec())}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: _canonical(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return {"__dataclass__": type(obj).__name__, **fields}
    raise EngineError(
        f"cannot fingerprint object of type {type(obj).__name__}:"
        f" implement fingerprint_spec() or pass plain data"
    )


#: Reused encoder for the fast path below (json.dumps with keyword
#: arguments constructs a fresh JSONEncoder per call — at ~6 us that
#: would be most of the fast path's budget).
_FAST_ENCODE = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def try_fast_json(obj: Any) -> Optional[str]:
    """The fast-path canonical encoding of ``obj``, or ``None`` when it
    needs the full :func:`_canonical` reduction.

    For plain JSON data (nested dicts/lists/tuples of strings, bools,
    ints, and finite floats — the shape of every DSE candidate and
    cache-key wrapper, fingerprinted once per candidate on the engine's
    hottest path) a direct sorted-keys dump *is* the canonical form:
    ``_canonical`` maps such values to themselves, and the encoder
    coerces non-string scalar keys exactly as the slow path does.
    Everything ``_canonical`` treats specially is rejected and returns
    ``None``: NaN/Infinity raise ValueError (``allow_nan=False``);
    numpy scalars/arrays, enums, sets, dataclasses, and
    ``fingerprint_spec`` objects raise TypeError as non-serializable.
    (Plain-Enum instances are rejected because none of the repo's
    enums mix in int/str; keep it that way or encodings drift.)

    JSON encoding is compositional, so callers holding precomputed
    fragments may splice a fast-encoded value into a larger canonical
    document (see ``Evaluator.key_for``) — the result is identical to
    fast-encoding the whole document at once.
    """
    try:
        return _FAST_ENCODE(obj)
    except (TypeError, ValueError, OverflowError):
        return None


def canonical_json(obj: Any) -> str:
    """The canonical JSON encoding of ``obj`` (stable across processes,
    dict orderings, and tuple-vs-list construction)."""
    fast = try_fast_json(obj)
    if fast is not None:
        return fast
    return json.dumps(_canonical(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=True)


def fingerprint(obj: Any) -> str:
    """The SHA-256 hex digest of :func:`canonical_json` of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
