"""Discrete design spaces: named parameters and their Cartesian product."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.fingerprint import try_fast_json
from repro.errors import SearchError

Config = Dict[str, Any]

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class Parameter:
    """One design knob with a finite set of values.

    Attributes:
        name: Parameter name (e.g. ``"compute_tier"``, ``"battery_wh"``).
        values: Candidate values, in a meaningful order when numeric.
    """

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise SearchError(f"parameter {self.name!r} has no values")
        if len(set(map(repr, self.values))) != len(self.values):
            raise SearchError(
                f"parameter {self.name!r} has duplicate values"
            )

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def is_numeric(self) -> bool:
        return all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in self.values)


class DesignSpace:
    """The Cartesian product of a list of parameters.

    Provides index <-> configuration mapping, uniform sampling, full
    enumeration, and a numeric encoding for surrogate models (numeric
    parameters are min-max scaled; categorical ones are one-hot).
    """

    def __init__(self, parameters: Sequence[Parameter]):
        if not parameters:
            raise SearchError("design space needs >= 1 parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise SearchError(f"duplicate parameter names: {names}")
        self.parameters = list(parameters)
        # Decode tables, derived once: the parameter list is immutable
        # for the space's lifetime.
        self._names = tuple(names)
        self._values = tuple(p.values for p in self.parameters)
        self._radices = tuple(p.cardinality for p in self.parameters)
        size = 1
        for radix in self._radices:
            size *= radix
        self.size = size
        # config_at's insertion order: last parameter first.
        self._decode_order = tuple(zip(reversed(self._names),
                                       reversed(self._values),
                                       reversed(self._radices)))
        # (fragment table,) once looked up; None before.
        self._fragments: Optional[tuple] = None

    def fingerprint_spec(self) -> Dict[str, Any]:
        """Identity for :func:`repro.engine.fingerprint.fingerprint`:
        the ordered parameter list is the whole space."""
        return {"kind": type(self).__name__,
                "parameters": self.parameters}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DesignSpace):
            return NotImplemented
        return self.parameters == other.parameters

    def __hash__(self) -> int:
        return hash(tuple(self.parameters))

    def config_at(self, index: int) -> Config:
        """The configuration at a flat index (mixed-radix decoding)."""
        if not 0 <= index < self.size:
            raise SearchError(
                f"index {index} out of range for space of size {self.size}"
            )
        config: Config = {}
        for name, values, radix in self._decode_order:
            index, digit = divmod(index, radix)
            config[name] = values[digit]
        return config

    def _checked(self, indices: Any) -> np.ndarray:
        """``indices`` as a read-only 1-D index array (int64, or exact
        Python ints for a space beyond int64), after one vectorized
        bounds check that raises :meth:`config_at`'s error for the
        first out-of-range index."""
        flat = np.asarray(indices)
        if flat.ndim != 1 or (flat.size and flat.dtype.kind not in "iuO"):
            raise SearchError(
                f"indices must be a 1-D integer sequence (got"
                f" {flat.dtype} with shape {flat.shape})")
        if flat.dtype.kind == "O" or self.size > _INT64_MAX:
            flat = np.array([int(i) for i in flat.tolist()], dtype=object)
        else:
            flat = flat.astype(np.int64)  # a private copy
        bad = (flat < 0) | (flat >= self.size)
        if bad.any():
            self.config_at(flat[int(np.argmax(bad))])  # raises
        flat.flags.writeable = False
        return flat

    def _digit_columns(self, flat: np.ndarray) -> List[List[int]]:
        """Mixed-radix digits of checked indices: one list per
        parameter, in declaration order."""
        columns: List[List[int]] = [[] for _ in self._radices]
        for position in range(len(self._radices) - 1, 0, -1):
            radix = self._radices[position]
            columns[position] = (flat % radix).tolist()
            flat = flat // radix
        columns[0] = flat.tolist()
        return columns

    def configs(self, indices: Any) -> "Population":
        """The configurations at a batch of flat indices, decoded in
        one vectorized pass: a :class:`Population` equal to
        ``[config_at(i) for i in indices]`` (same dicts, same key
        order) that also carries the indices."""
        flat = self._checked(indices)
        picked = [list(map(values.__getitem__, column))
                  for values, column in zip(self._values,
                                            self._digit_columns(flat))]
        names = tuple(reversed(self._names))
        configs = [dict(zip(names, row))
                   for row in zip(*reversed(picked))]
        return Population(configs, self, flat)

    def _fragment_table(
            self) -> Optional[Tuple[Tuple[int, Tuple[str, ...]], ...]]:
        """Pre-encoded ``"name":value`` JSON fragments, one tuple per
        parameter (indexed by digit) with its declaration position, in
        sorted-name order -- or None when a name is not a ``str`` or a
        value is not plain JSON.  Built on first use."""
        if self._fragments is None:
            table = None
            encoded = [[try_fast_json(value) for value in values]
                       for values in self._values]
            if all(type(name) is str for name in self._names) and not any(
                    None in column for column in encoded):
                table = tuple(
                    (position, tuple(try_fast_json(self._names[position])
                                     + ":" + value
                                     for value in encoded[position]))
                    for position in sorted(range(len(self._names)),
                                           key=self._names.__getitem__))
            self._fragments = (table,)
        return self._fragments[0]

    def index_of(self, config: Config) -> int:
        """Flat index of a configuration (inverse of :meth:`config_at`)."""
        index = 0
        for p in self.parameters:
            try:
                digit = p.values.index(config[p.name])
            except (KeyError, ValueError):
                raise SearchError(
                    f"config {config!r} invalid at parameter {p.name!r}"
                ) from None
            index = index * p.cardinality + digit
        return index

    def __iter__(self) -> Iterator[Config]:
        for index in range(self.size):
            yield self.config_at(index)

    def sample(self, rng: np.random.Generator, n: int = 1,
               replace: bool = True) -> "Population":
        """Uniformly sample ``n`` configurations (a :class:`Population`;
        the RNG draw is the same one ``rng.choice`` always made)."""
        if not replace and n > self.size:
            raise SearchError(
                f"cannot sample {n} unique configs from a space of"
                f" {self.size}"
            )
        indices = rng.choice(self.size, size=n, replace=replace)
        return self.configs(indices)

    def encode(self, config: Config) -> np.ndarray:
        """Numeric feature vector for surrogate models."""
        features: List[float] = []
        for p in self.parameters:
            value = config[p.name]
            if p.is_numeric():
                lo = float(min(p.values))
                hi = float(max(p.values))
                span = hi - lo if hi > lo else 1.0
                features.append((float(value) - lo) / span)
            else:
                for candidate in p.values:
                    features.append(1.0 if candidate == value else 0.0)
        return np.array(features)

    @property
    def encoded_dim(self) -> int:
        return sum(1 if p.is_numeric() else p.cardinality
                   for p in self.parameters)

    def neighbors(self, config: Config) -> List[Config]:
        """All configs differing in exactly one parameter (for local
        search and GA mutation)."""
        result: List[Config] = []
        for p in self.parameters:
            for value in p.values:
                if value != config[p.name]:
                    alt = dict(config)
                    alt[p.name] = value
                    result.append(alt)
        return result


class Population(list):
    """A batch of configurations decoded from flat design indices.

    It *is* the list ``[space.config_at(i) for i in indices]`` (same
    dicts, same key order), and also carries ``space`` and ``indices``
    so consumers can work on the index view: the evaluator derives a
    whole batch's cache keys from the space's pre-encoded fragments
    (:meth:`canonical_json`) instead of JSON-encoding each dict.

    Build one with :meth:`DesignSpace.configs` (or ``sample``), which
    keeps configs and indices in step.  Slicing keeps the indices;
    every other copy (``list(...)``, ``+``, ``copy``, pickling) is a
    plain list.  A population is read-only --
    in-place list edits raise ``TypeError`` -- and its configs must be
    treated as read-only too, since keys follow the indices.
    """

    __slots__ = ("space", "indices")

    def __init__(self, configs: List[Config], space: DesignSpace,
                 indices: np.ndarray):
        super().__init__(configs)
        self.space = space
        self.indices = indices

    def __getitem__(self, item: Any) -> Any:
        if isinstance(item, slice):
            return Population(list.__getitem__(self, item), self.space,
                              self.indices[item])
        return list.__getitem__(self, item)

    def __reduce_ex__(self, protocol: Any) -> Any:
        return list, (list(self),)

    def _read_only(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("a Population is read-only; copy it with list()")

    append = extend = insert = pop = remove = clear = _read_only
    sort = reverse = _read_only
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only

    def canonical_json(self) -> Optional[List[str]]:
        """:func:`repro.engine.fingerprint.canonical_json` of every
        config, byte for byte, joined from the space's fragment table
        in one pass; ``None`` when the space's names or values are not
        plain JSON (NaN, numpy scalars, enums, ...)."""
        table = self.space._fragment_table()
        if table is None:
            return None
        columns = self.space._digit_columns(self.indices)
        last = len(table) - 1
        parts = []
        for rank, (position, fragments) in enumerate(table):
            if rank == 0:
                fragments = ["{" + f for f in fragments]
            if rank == last:
                fragments = [f + "}" for f in fragments]
            parts.append(map(fragments.__getitem__, columns[position]))
        return list(map(",".join, zip(*parts)))
