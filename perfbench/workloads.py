"""The three in-process workloads: cold funnel DSE, warm replay, fleet
Monte Carlo.

Each workload splits into ``setup()`` (everything a user pays before
the first answer), ``op(i)`` (one timed unit: a search or a study, with
inputs drawn from the benchmark seed and ``i``) and ``check(outcome)``
(the output checks, run outside the timed region).  :func:`run_window`
repeats ops until the window closes.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

#: Fixed sizes per workload; ``smoke`` is the tiny mode the benchmark's
#: own tests run.
SIZES = {
    "funnel_cold": {"full": {"budget": 2000}, "smoke": {"budget": 400}},
    "warm_replay": {"full": {"searches": 16, "budget": 2500},
                    "smoke": {"searches": 2, "budget": 500}},
    "fleet_montecarlo": {"full": {"trials": 2048, "samples": 4},
                         "smoke": {"trials": 32, "samples": 1}},
}

#: The CLI scenario the fleet workload raises the trial count of.
FLEET_TEMPLATE = Path("examples") / "scenarios" / "fleet_montecarlo.json"


def op_seed(seed: int, i: int) -> int:
    """The seed of op ``i`` in a run seeded ``seed`` (distinct per op,
    so a run averages over many inputs)."""
    return (seed * 1_000_003 + i) % (2 ** 31)


@dataclasses.dataclass
class Outcome:
    """What one op did: units of work, and what its checks need."""

    work: int
    detail: Any = None


class Workload:
    """Shared state: checkout root, scratch directory, seed, sizes, and
    the Evaluator counters the ops add up."""

    unit = "ops"

    def __init__(self, root: Path, work: Path, seed: int, size: Dict):
        self.root, self.work, self.seed, self.size = root, work, seed, size
        self.engine = {"oracle_calls": 0, "batch_fallbacks": 0}

    def final_checks(self) -> int:
        """Checks run once after the window; returns failures."""
        return 0

    def layer_extras(self) -> Dict[str, float]:
        """Workload-specific per-layer metrics."""
        return {}


class FunnelCold(Workload):
    """Funnel DSE over codesign_xl x mission_objective, default gates,
    each op from an empty in-memory cache."""

    unit = "screened candidates"

    def __init__(self, *args: Any):
        super().__init__(*args)
        self.tiers: Dict[str, int] = {}

    def setup(self) -> None:
        import repro.spec as spec
        from repro.spec.registry import OBJECTIVES

        path = self.work / "funnel_cold.json"
        path.write_text(json.dumps({
            "spec_version": 1, "kind": "scenario", "name": "funnel-cold",
            "dse": {"space": {"ref": "codesign_xl"},
                    "objective": {"ref": "mission_objective"},
                    "strategy": "funnel", "budget": self.size["budget"],
                    "seed": op_seed(self.seed, 0), "jobs": 1,
                    "funnel": {"inner": "random"}}}))
        self.run = spec.load_scenario(str(path)).run
        self.objective = OBJECTIVES.get(self.run.objective)
        # The shared mission setting (course planning) and the kernels'
        # scratch arena are built on first use; that is set-up work.
        self.objective.pricing_screen_batch([self.run.space.config_at(0)])

    def op(self, i: int) -> Outcome:
        from repro.dse.funnel import funnel_search
        from repro.engine import Evaluator
        from repro.serve.protocol import evaluator_context

        seed = op_seed(self.seed, i)
        evaluator = Evaluator(self.objective, jobs=1, seed=seed,
                              chunk_size=self.run.chunk_size,
                              context=evaluator_context(self.run.objective))
        result, strategy = funnel_search(
            self.run.space, budget=self.run.budget, seed=seed,
            config=self.run.funnel, evaluator=evaluator)
        report = strategy.tier_report()
        return Outcome(work=report[0]["evaluated"],
                       detail=(result, report, evaluator.stats()))

    def check(self, outcome: Outcome) -> bool:
        result, report, stats = outcome.detail
        for row in report:
            self.tiers[row["tier"]] = \
                self.tiers.get(row["tier"], 0) + row["evaluated"]
        for name in self.engine:
            self.engine[name] += stats[name]
        top = report[-1]["evaluated"] / report[0]["evaluated"]
        return (self.objective(result.best_config) == result.best_value
                and 0.005 <= top <= 0.02)

    def layer_extras(self) -> Dict[str, float]:
        screened = self.tiers.get("pricing", 0)
        out = {"dse.funnel.top_tier_frac":
               self.tiers.get("mission", 0) / screened if screened else 0.0}
        for tier in ("pricing", "fleet", "mission"):
            out[f"dse.funnel.{tier}.evaluated"] = self.tiers.get(tier, 0)
        return out


class WarmReplay(Workload):
    """Random searches over codesign_xl x suite_objective, primed into
    an in-memory cache at set-up and replayed by fresh Evaluators."""

    unit = "replayed candidates"

    def _evaluator(self, seed: int):
        from repro.engine import Evaluator
        from repro.serve.protocol import evaluator_context

        return Evaluator(self.objective, jobs=1, cache=self.cache,
                         seed=seed,
                         context=evaluator_context("suite_objective"))

    def setup(self) -> None:
        from repro.dse.search import random_search
        from repro.engine import ResultCache
        from repro.spec.registry import OBJECTIVES, SPACES

        self.space = SPACES.build("codesign_xl", "space")
        self.objective = OBJECTIVES.get("suite_objective")
        self.cache = ResultCache()
        self.primed = []
        for p in range(self.size["searches"]):
            seed = op_seed(self.seed, p)
            result = random_search(self.space, budget=self.size["budget"],
                                   seed=seed,
                                   evaluator=self._evaluator(seed))
            self.primed.append((seed, result.best_config,
                                result.best_value))

    def op(self, i: int) -> Outcome:
        from repro.dse.search import RandomStrategy
        from repro.engine.protocol import run_search

        seed, _, _ = self.primed[i % len(self.primed)]
        evaluator = self._evaluator(seed)
        strategy = RandomStrategy(self.space, budget=self.size["budget"],
                                  seed=seed)
        result = run_search(strategy, evaluator)
        return Outcome(work=self.size["budget"],
                       detail=(i, result, evaluator.stats()))

    def check(self, outcome: Outcome) -> bool:
        i, result, stats = outcome.detail
        for name in self.engine:
            self.engine[name] += stats[name]
        _, best_config, best_value = self.primed[i % len(self.primed)]
        return (stats["oracle_calls"] == 0
                and result.best_config == best_config
                and result.best_value == best_value)


class FleetMonteCarlo(Workload):
    """The CLI's fleet Monte Carlo study with trials raised, jobs=1."""

    unit = "rollouts"

    def __init__(self, *args: Any):
        super().__init__(*args)
        self.samples: List[tuple] = []

    def setup(self) -> None:
        import repro.spec as spec

        document = json.loads((self.root / FLEET_TEMPLATE).read_text())
        document["fleet"]["trials"] = self.size["trials"]
        document["fleet"]["seed"] = op_seed(self.seed, 0)
        path = self.work / "fleet_montecarlo.json"
        path.write_text(json.dumps(document))
        self.run = spec.load_scenario(str(path)).run
        self.rng = np.random.default_rng(self.seed)

    def op(self, i: int) -> Outcome:
        from repro.system.fleet import FleetStudy

        run = self.run
        study = FleetStudy(config=run.config, tiers=list(run.tiers),
                           trials=run.trials, seed=op_seed(self.seed, i),
                           perturbation=run.perturbation)
        result = study.run(jobs=1, chunk_size=run.chunk_size)
        return Outcome(work=len(result.fleet.results), detail=result)

    def check(self, outcome: Outcome) -> bool:
        fleet = outcome.detail.fleet
        pick = int(self.rng.integers(len(fleet.results)))
        self.samples.append((fleet.rollouts[pick], fleet.results[pick]))
        return (len(fleet.results)
                == self.run.trials * len(self.run.tiers)
                and len(outcome.detail.statistics) == len(self.run.tiers))

    def final_checks(self) -> int:
        """Re-fly a spread of sampled rollouts through the scalar
        simulator; each must equal the fleet engine's result exactly."""
        from repro.system.fleet import ensure_course
        from repro.system.mission import run_mission

        courses: Dict = {}
        count = min(self.size["samples"], len(self.samples))
        picks = np.linspace(0, len(self.samples) - 1, count).astype(int)
        failed = 0
        for index in picks:
            rollout, expected = self.samples[index]
            flown = run_mission(rollout.config, rollout.platform,
                                rollout.compute_mass_kg,
                                rollout.compute_power_w,
                                course=ensure_course(rollout.config,
                                                     courses))
            failed += flown != expected
        return failed


WORKLOADS = {"funnel_cold": FunnelCold, "warm_replay": WarmReplay,
             "fleet_montecarlo": FleetMonteCarlo}


def run_window(workload: Any, seconds: float,
               recorder: Optional[Any] = None) -> Dict[str, Any]:
    """Repeat ops for ``seconds``; only the ops themselves are timed
    (and traced), the checks between them are not."""
    clock = time.perf_counter
    durations: List[float] = []
    works: List[int] = []
    attempted = failed = 0
    deadline = clock() + seconds
    i = 0
    while True:
        if recorder is not None:
            recorder.on = True
        start = clock()
        outcome = workload.op(i)
        durations.append(clock() - start)
        if recorder is not None:
            recorder.on = False
        works.append(outcome.work)
        attempted += 1
        failed += not workload.check(outcome)
        i += 1
        if clock() >= deadline:
            break
    return {"durations": durations, "works": works,
            "attempted": attempted, "failed": failed}
