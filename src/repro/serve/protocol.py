"""Wire protocol of the evaluation daemon: JSON lines over a socket.

Each message is one JSON object on one ``\\n``-terminated line (UTF-8,
no embedded newlines — ``json.dumps`` never emits raw ones).  Requests
carry an ``op``; responses echo it back with ``ok: true`` plus the
op-specific payload, or ``ok: false`` with an ``error`` code and a
human-readable ``detail``:

========== ==========================================================
op         request fields
========== ==========================================================
ping       —
submit     ``objective`` (OBJECTIVES ref, default
           ``suite_objective``), candidates as either ``candidates``
           (a list of config mappings) or ``space`` (SPACES ref) +
           ``indices`` (design indices into it), optional ``tenant``
           label and ``no_coalesce`` flag
stats      —
shutdown   — (graceful: drain pending batches, then stop)
========== ==========================================================

Error codes the server emits: ``bad_request`` (malformed message —
the dotted-path detail pinpoints the field), ``overloaded`` (admission
control rejected the submission; retry after ``retry_after_ms``),
``draining`` (server is shutting down), ``internal`` (the oracle
raised).

Candidate decoding goes through the same spec registries as the CLI
(:data:`~repro.spec.registry.OBJECTIVES`,
:data:`~repro.spec.registry.SPACES`), and the server prices through an
:class:`~repro.engine.evaluator.Evaluator` built with the CLI's
``dse-codesign`` context — so a submission, a ``repro dse`` run, and a
``repro run`` scenario replay all resolve to identical cache keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SpecError
from repro.spec import schema

__all__ = ["MAX_LINE_BYTES", "Submission", "decode_line",
           "decode_submission", "encode_line", "error_response",
           "evaluator_context"]

#: Upper bound on one wire line; a client streaming more than this is
#: malformed (or malicious) and gets a ``bad_request``, not a swelling
#: server buffer.  Generous enough for ~10k 4-knob candidates.
MAX_LINE_BYTES = 8 * 1024 * 1024

_OPS = ("ping", "submit", "stats", "shutdown")

_SUBMIT_KEYS = ("op", "objective", "candidates", "space", "indices",
                "tenant", "no_coalesce")

#: Registered spaces by name, each built on its first submission.
_SPACES_BUILT: Dict[str, Any] = {}


def evaluator_context(objective_name: str) -> Dict[str, str]:
    """The evaluator context of the CLI's DSE path, verbatim.

    Key-compatibility is the serve layer's core contract: this must
    stay byte-identical to what ``repro dse`` / ``repro run`` build, so
    a server-primed cache replays them with zero oracle calls
    (``tests/serve/test_serve.py`` enforces it end to end).
    """
    return {"task": "dse-codesign", "objective": objective_name}


@dataclass
class Submission:
    """One decoded ``submit`` request.

    Attributes:
        objective: Registry name of the objective to price under.
        candidates: Decoded candidate configs, in request order.
        tenant: Client-chosen label for per-tenant accounting.
        no_coalesce: Price this request's misses as their own batch
            instead of joining the shared pending set (the benchmark
            baseline; values and cache keys are unchanged).
    """

    objective: str
    candidates: List[Mapping[str, Any]] = field(default_factory=list)
    tenant: str = "anonymous"
    no_coalesce: bool = False


def decode_line(raw: bytes) -> Mapping[str, Any]:
    """One wire line -> request mapping (validates op)."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SpecError(f"$: not a JSON line: {error}") from None
    payload = schema.require_mapping(payload, "$")
    op = schema.as_str(schema.get_field(payload, "op", "$"), "$.op")
    if op not in _OPS:
        raise SpecError(
            f"$.op: unknown operation {op!r}; expected one of"
            f" {sorted(_OPS)}")
    return payload


def encode_line(message: Mapping[str, Any]) -> bytes:
    """One response/request mapping -> wire line (newline included)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode(
        "utf-8")


def error_response(op: str, code: str, detail: str,
                   **extra: Any) -> Dict[str, Any]:
    """A failure envelope: ``{"ok": false, "error": code, ...}``."""
    return {"ok": False, "op": op, "error": code, "detail": detail,
            **extra}


def decode_submission(payload: Mapping[str, Any]) -> Submission:
    """Validate and decode a ``submit`` request.

    Candidates come either inline (``candidates``: config mappings) or
    by reference (``space`` + ``indices``: design indices resolved
    through the SPACES registry) — both land on the exact config dicts
    the registries produce, so fingerprints match programmatic runs.
    """
    from repro.spec.registry import OBJECTIVES

    schema.check_keys(payload, _SUBMIT_KEYS, "$")
    objective = schema.as_str(
        payload.get("objective", "suite_objective"), "$.objective")
    OBJECTIVES.entry(objective, "$.objective")
    tenant = schema.as_str(
        payload.get("tenant", "anonymous"), "$.tenant")
    no_coalesce = schema.as_bool(
        payload.get("no_coalesce", False), "$.no_coalesce")
    has_inline = "candidates" in payload
    has_ref = "space" in payload or "indices" in payload
    if has_inline == has_ref:
        raise SpecError(
            "$: a submission carries either 'candidates' or"
            " 'space' + 'indices', not "
            + ("both" if has_inline else "neither"))
    if has_inline:
        candidates = [
            dict(schema.require_mapping(
                candidate, schema.item("$.candidates", i)))
            for i, candidate in enumerate(schema.as_sequence(
                payload["candidates"], "$.candidates"))
        ]
    else:
        space_name = schema.as_str(
            schema.get_field(payload, "space", "$"), "$.space")
        space = _named_space(space_name)
        indices = schema.as_sequence(
            schema.get_field(payload, "indices", "$"), "$.indices")
        for i, index in enumerate(indices):
            if type(index) is not int:
                # An earlier out-of-range index is reported first.
                _check_bounds(indices[:i], space, space_name)
                schema.as_int(index, schema.item("$.indices", i))
        _check_bounds(indices, space, space_name)
        candidates = space.configs(indices)
    if not candidates:
        raise SpecError("$: a submission must carry at least one"
                        " candidate")
    return Submission(objective=objective, candidates=candidates,
                      tenant=tenant, no_coalesce=no_coalesce)


def _named_space(name: str) -> Any:
    """The registered space ``name``, built once per process."""
    space = _SPACES_BUILT.get(name)
    if space is None:
        from repro.spec.registry import SPACES
        space = _SPACES_BUILT[name] = SPACES.build(name, "$.space")
    return space


def _check_bounds(indices: Sequence[int], space: Any,
                  space_name: str) -> None:
    """One pass over the whole index list (``min``/``max``); only a
    failing list is walked to name its first bad index."""
    if not indices or (min(indices) >= 0
                       and max(indices) < space.size):
        return
    for i, index in enumerate(indices):
        if not 0 <= index < space.size:
            raise SpecError(
                f"{schema.item('$.indices', i)}: index {index} outside"
                f" space {space_name!r} (size {space.size})")


def read_frame(handle: Any) -> Optional[bytes]:
    """Read one wire line from a file-like object (None on EOF).

    Shared by the blocking client; the asyncio server uses
    ``StreamReader.readline`` with the same :data:`MAX_LINE_BYTES`
    bound.
    """
    line = handle.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise SpecError(
            f"$: wire line exceeds {MAX_LINE_BYTES} bytes")
    return line


def split_results(results: List[Mapping[str, Any]]
                  ) -> Tuple[int, int]:
    """(cache hits, fresh evaluations) of a submit response body."""
    hits = sum(1 for result in results if result["cached"])
    return hits, len(results) - hits
