"""The golden cache-key table: what it holds and how to regenerate it.

``golden_keys.json`` pins the content address of a fixed index set
(first, last and strided) in every registered design space, under
``evaluator_context(objective)`` for every registered objective, at
full fidelity (``tier: null``) and at every lower tier the objective
declares.  ``test_golden_keys.py`` checks it byte for byte, so a change
that moves a persistent cache key fails tier-1 instead of silently
orphaning every primed cache directory.

Regenerate only on purpose, and name the reason in CHANGES.md::

    PYTHONPATH=src python -m tests.engine.golden_keys           # diff only
    PYTHONPATH=src python -m tests.engine.golden_keys --write   # diff + write
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Dict, List

TABLE = Path(__file__).with_name("golden_keys.json")

#: Strided indices per space: ``range(0, size, size // STRIDES + 1)``,
#: plus the last index.  An odd step keeps every digit varying.
STRIDES = 7


def golden_indices(size: int) -> List[int]:
    """First, last and strided flat indices of a space of ``size``."""
    return sorted(set(range(0, size, size // STRIDES + 1)) | {size - 1})


def compute_table() -> Dict[str, Any]:
    """The table as ``key_for`` derives it at this commit."""
    from repro.engine import Evaluator
    from repro.engine.protocol import fidelity_tiers
    from repro.serve.protocol import evaluator_context
    from repro.spec.registry import OBJECTIVES, SPACES

    indices = {name: golden_indices(SPACES.build(name).size)
               for name in SPACES}
    records = []
    for space_name in SPACES:
        space = SPACES.build(space_name)
        configs = [space.config_at(i) for i in indices[space_name]]
        for objective_name in OBJECTIVES:
            objective = OBJECTIVES.get(objective_name)
            evaluator = Evaluator(
                objective, context=evaluator_context(objective_name))
            lower = [tier.name for tier in fidelity_tiers(objective)[:-1]]
            for tier in [None, *lower]:
                records.append({
                    "space": space_name, "objective": objective_name,
                    "tier": tier,
                    "keys": [evaluator.key_for(config, tier)
                             for config in configs]})
    return {"indices": indices, "records": records}


def diff(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Human-readable lines naming every entry that differs."""
    lines = []
    if old.get("indices") != new["indices"]:
        lines.append(f"indices: {old.get('indices')} -> {new['indices']}")

    def by_id(table: Dict[str, Any]) -> Dict[tuple, List[str]]:
        return {(r["space"], r["objective"], r["tier"]): r["keys"]
                for r in table.get("records", [])}

    before, after = by_id(old), by_id(new)
    for ident in sorted(set(before) | set(after), key=repr):
        old_keys, new_keys = before.get(ident), after.get(ident)
        if old_keys == new_keys:
            continue
        if old_keys is None or new_keys is None:
            lines.append(f"{ident}: {'added' if old_keys is None else 'removed'}")
            continue
        for position, (a, b) in enumerate(zip(old_keys, new_keys)):
            if a != b:
                lines.append(f"{ident}[{position}]: {a} -> {b}")
        if len(old_keys) != len(new_keys):
            lines.append(f"{ident}: {len(old_keys)} -> {len(new_keys)} keys")
    return lines


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="overwrite golden_keys.json after printing"
                             " the diff")
    args = parser.parse_args(argv)
    new = compute_table()
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    lines = diff(old, new)
    for line in lines:
        print(line)
    print(f"{len(lines)} difference(s)")
    if args.write and lines:
        TABLE.write_text(json.dumps(new, indent=1) + "\n")
        print(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
