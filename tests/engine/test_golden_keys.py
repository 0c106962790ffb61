"""No cache key moves: ``golden_keys.json`` pins the content address of
a fixed index set in every registered space, objective context and
tier, through ``key_for`` and through the population path that
``map_batch`` takes for index-decoded batches.

Regenerate the table only with ``python -m tests.engine.golden_keys
--write`` (it prints the diff), and say why in CHANGES.md.
"""

import json

import pytest

from repro.engine import Evaluator, ResultCache
from repro.serve.protocol import evaluator_context
from repro.spec.registry import OBJECTIVES, SPACES
from tests.engine.golden_keys import TABLE, compute_table, diff

GOLDEN = json.loads(TABLE.read_text())


def test_key_for_matches_the_golden_table():
    assert diff(GOLDEN, compute_table()) == []


def test_table_covers_every_registered_space_objective_and_tier():
    covered = {(r["space"], r["objective"]) for r in GOLDEN["records"]}
    assert covered == {(s, o) for s in SPACES for o in OBJECTIVES}
    assert set(GOLDEN["indices"]) == set(SPACES)


@pytest.mark.parametrize(
    "record", GOLDEN["records"],
    ids=lambda r: f"{r['space']}-{r['objective']}-{r['tier']}")
def test_population_keys_match_the_golden_table(record):
    space = SPACES.build(record["space"])
    population = space.configs(GOLDEN["indices"][record["space"]])
    objective = OBJECTIVES.get(record["objective"])
    context = evaluator_context(record["objective"])
    assert Evaluator(objective, context=context).keys_for(
        population, record["tier"]) == record["keys"]
    # The whole map_batch path (bulk keys, bulk probe, results) finds
    # entries stored under the golden keys, with no oracle call.
    cache = ResultCache()
    for key in record["keys"]:
        cache.put(key, 0.0)
    evaluator = Evaluator(objective, context=context, cache=cache)
    results = evaluator.map_batch(population, tier=record["tier"])
    assert [r.key for r in results] == record["keys"]
    assert evaluator.stats()["oracle_calls"] == 0
