"""How ``map_batch`` partitions a batch into cached and fresh keys.

Whatever mix of cache hits, in-batch repeats and chunking a batch has,
every result must carry ``seed_for(key)``, the objective's value and
``cached`` exactly when its key was stored before or appeared earlier
in the batch; each fresh key is priced once.  A batch whose candidates
are all distinct and uncached reaches ``evaluate_batch`` as slices of
itself, so a Population keeps its index view.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dse.space import DesignSpace, Parameter, Population
from repro.engine import Evaluator, ResultCache

SPACE = DesignSpace([Parameter("x", (0.5, 1.5, 2.5, 3.5)),
                     Parameter("y", (1, 2, 3))])


class Recording:
    """A batch objective that records what each window was."""

    def __init__(self):
        self.windows = []

    def __call__(self, config):
        return config["x"] * 10 + config["y"]

    def evaluate_batch(self, configs):
        self.windows.append(configs)
        return [self(config) for config in configs]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, SPACE.size - 1), max_size=14),
       st.lists(st.integers(0, SPACE.size - 1), max_size=6),
       st.sampled_from([None, 1, 3, 100]), st.integers(0, 2 ** 70))
@example(list(range(SPACE.size)), [], None, 0)  # all fresh, distinct
@example([3, 3, 5, 3, 0], [5], 2, 7)
def test_results_follow_the_cache_and_first_occurrence(batch, primed,
                                                       chunk_size, seed):
    objective = Recording()
    evaluator = Evaluator(objective, seed=seed, chunk_size=chunk_size,
                          cache=ResultCache())
    stored = set(evaluator.keys_for(SPACE.configs(primed)))
    for key in stored:
        evaluator.cache.put(key, -1.0)
    population = SPACE.configs(batch)
    results = evaluator.map_batch(population)
    seen = set(stored)
    for config, result in zip(population, results):
        key = evaluator.key_for(config)
        assert result.key == key
        assert result.candidate is config
        assert result.seed == evaluator.seed_for(key)
        assert result.cached == (key in seen)
        assert result.value == (-1.0 if key in stored else objective(config))
        if result.cached:
            assert result.wall_time_s == 0.0
        seen.add(key)
    fresh = [r for r in results if not r.cached]
    assert evaluator.stats()["oracle_calls"] == len(fresh)
    assert [config for window in objective.windows
            for config in window] == [r.candidate for r in fresh]
    if len(fresh) == len(batch):
        assert all(isinstance(window, Population)
                   for window in objective.windows)
