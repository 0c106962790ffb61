"""An MLPerf-style benchmark suite for autonomy compute.

§3.2 "Standardized Benchmarks and Metrics", implemented: a registry of
representative multi-stage autonomy workloads (:mod:`workloads`), a
runner that evaluates platforms/SoCs against all of them with deadlines
(:mod:`runner`), and normalized scoring (:mod:`scoring`) so comparisons
are geometric-mean-fair rather than cherry-picked — the §2.3 evaluation
remedy.
"""

from repro.benchmarksuite.runner import (
    BenchmarkRow,
    PairPricer,
    SuiteRunner,
    evaluate_pair,
    price_pairs,
    row_cache,
)
from repro.benchmarksuite.scoring import (
    geometric_mean,
    normalized_scores,
    score_report,
)
from repro.benchmarksuite.workloads import build_workload, standard_suite

__all__ = [
    "BenchmarkRow",
    "PairPricer",
    "SuiteRunner",
    "build_workload",
    "evaluate_pair",
    "geometric_mean",
    "normalized_scores",
    "price_pairs",
    "row_cache",
    "score_report",
    "standard_suite",
]
