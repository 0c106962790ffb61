"""Named-builder registries: ``{"ref": name}`` resolution for specs.

Catalog platforms, suite workloads, DSE objectives/spaces, and compute
ladders register themselves at import time via decorators::

    @PLATFORMS.register("embedded-cpu")
    def embedded_cpu(name: str = "embedded-cpu") -> CpuModel: ...

Any spec may then reference the entry by name (``{"ref":
"embedded-cpu"}``) instead of spelling out the full configuration, and
the CLI derives its catalog listings and help text from the same
entries — there is no second hand-maintained name list to drift.

This module is deliberately dependency-light (it imports only the
error hierarchy): provider modules import *it* for the decorators, and
the registries lazily import their providers on first lookup, so there
is no import cycle and ``import repro.spec.registry`` stays cheap.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.errors import SpecError

__all__ = ["Registry", "RegistryEntry", "PLATFORMS", "WORKLOADS",
           "OBJECTIVES", "SPACES", "TIERS"]


class RegistryEntry:
    """One named builder plus its metadata.

    Attributes:
        name: The reference name specs use.
        builder: The callable that produces the object.
        meta: Free-form metadata (e.g. ``programmable=False`` marks
            catalog entries the DSL verifier should not offer).
        doc: First line of the builder's docstring, for listings.
    """

    __slots__ = ("name", "builder", "meta", "doc")

    def __init__(self, name: str, builder: Callable[..., Any],
                 meta: Mapping[str, Any]):
        self.name = name
        self.builder = builder
        self.meta = dict(meta)
        doc = (builder.__doc__ or "").strip()
        self.doc = doc.splitlines()[0] if doc else ""

    def __repr__(self) -> str:
        return f"RegistryEntry({self.name!r})"


class Registry:
    """A name -> builder table resolvable from ``{"ref": ...}`` specs.

    Args:
        kind: What the entries build (used in error messages).
        providers: Modules that register the built-in entries; imported
            lazily on first lookup so the registry module itself stays
            import-cheap and cycle-free.
    """

    def __init__(self, kind: str, providers: Sequence[str] = ()):
        self._kind = kind
        self._providers = tuple(providers)
        self._entries: Dict[str, RegistryEntry] = {}
        self._loaded = False

    @property
    def kind(self) -> str:
        return self._kind

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        for module in self._providers:
            importlib.import_module(module)

    def register(self, name: str,
                 builder: Optional[Callable[..., Any]] = None,
                 **meta: Any):
        """Register ``builder`` under ``name`` (usable as a decorator).

        Returns the builder unchanged, so decorated functions keep
        working as plain callables (and stay picklable).
        """

        def _register(fn: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._entries:
                raise SpecError(
                    f"duplicate {self._kind} registration: {name!r}"
                )
            self._entries[name] = RegistryEntry(name, fn, meta)
            return fn

        if builder is not None:
            return _register(builder)
        return _register

    def entry(self, name: str, path: str = "$") -> RegistryEntry:
        """The entry for ``name``; unknown names list what exists."""
        self._ensure_loaded()
        try:
            return self._entries[name]
        except KeyError:
            raise SpecError(
                f"{path}: unknown {self._kind} ref {name!r};"
                f" registered: {sorted(self._entries)}"
            ) from None

    def get(self, name: str, path: str = "$") -> Callable[..., Any]:
        """The raw registered callable (for objectives, which are used
        as functions rather than called once to build an object)."""
        return self.entry(name, path).builder

    def build(self, name: str, path: str = "$", /,
              **kwargs: Any) -> Any:
        """Call the builder for ``name`` with ``kwargs`` (positional-
        only parameters, so ``kwargs`` may itself carry a ``name``
        builder argument, e.g. renaming a catalog platform)."""
        entry = self.entry(name, path)
        try:
            return entry.builder(**kwargs)
        except TypeError as error:
            raise SpecError(
                f"{path}: {self._kind} ref {name!r} rejected arguments"
                f" {sorted(kwargs)}: {error}"
            ) from None

    def names(self) -> List[str]:
        """Entry names in registration order."""
        self._ensure_loaded()
        return list(self._entries)

    def entries(self) -> List[RegistryEntry]:
        """Entries in registration order."""
        self._ensure_loaded()
        return list(self._entries.values())

    def as_dict(self) -> Dict[str, Callable[..., Any]]:
        """A name -> builder mapping (registration order)."""
        self._ensure_loaded()
        return {name: entry.builder
                for name, entry in self._entries.items()}

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        self._ensure_loaded()
        return iter(self._entries)

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def __repr__(self) -> str:
        return (f"Registry({self._kind!r},"
                f" {len(self._entries)} entries)")


#: Catalog platforms (``repro.hw.catalog``).  Entries tagged
#: ``programmable=False`` (fixed-function accelerators) are excluded
#: from the CLI's ``--platform`` choices but remain referencable as SoC
#: accelerators in specs.
PLATFORMS = Registry("platform", providers=("repro.hw.catalog",))

#: Suite workloads (``repro.benchmarksuite.workloads``).
WORKLOADS = Registry("workload",
                     providers=("repro.benchmarksuite.workloads",))

#: Picklable DSE objectives (``repro.dse.objectives``).
OBJECTIVES = Registry("objective", providers=("repro.dse.objectives",))

#: Named design spaces (``repro.dse.objectives``).
SPACES = Registry("design space", providers=("repro.dse.objectives",))

#: Compute ladders for mission sweeps (``repro.hw.catalog``).
TIERS = Registry("tier ladder", providers=("repro.hw.catalog",))
