"""Unit tests for the benchmark suite (workloads, runner, scoring)."""

import math

import pytest

from repro.benchmarksuite import (
    SuiteRunner,
    build_workload,
    geometric_mean,
    normalized_scores,
    standard_suite,
)
from repro.benchmarksuite.scoring import coverage_score
from repro.errors import BenchmarkError
from repro.hw import (
    HeterogeneousSoC,
    asic_gemm_engine,
    embedded_cpu,
    embedded_gpu,
)
from repro.hw.asic import widget_asic
from repro.spec.registry import WORKLOADS


class TestWorkloads:
    def test_registry_builds_everything(self):
        suite = standard_suite()
        assert [w.name for w in suite] == WORKLOADS.names()
        assert all(len(w.graph) >= 2 for w in suite)

    def test_unknown_workload(self):
        with pytest.raises(BenchmarkError):
            build_workload("nope")

    def test_suite_spans_categories(self):
        """§2.3 by construction: the suite must span several op classes
        so no widget can ace it."""
        classes = set()
        for workload in standard_suite():
            classes.update(workload.composition())
        assert {"gemm", "stencil", "collision", "linalg"} <= classes

    def test_every_workload_has_quality_metric(self):
        for workload in standard_suite():
            assert workload.quality_metric != "task_quality"

    def test_deadlines_positive(self):
        for workload in standard_suite():
            assert workload.deadline_s() > 0


class TestScoring:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(BenchmarkError):
            geometric_mean([1.0, 0.0])

    def test_normalized_scores_reference_is_one(self):
        latencies = {
            "ref": {"w1": 1.0, "w2": 2.0},
            "fast": {"w1": 0.5, "w2": 1.0},
        }
        scores = normalized_scores(latencies, "ref")
        assert scores["ref"] == pytest.approx(1.0)
        assert scores["fast"] == pytest.approx(2.0)

    def test_mismatched_workloads_rejected(self):
        with pytest.raises(BenchmarkError):
            normalized_scores({"a": {"w": 1.0}, "b": {"v": 1.0}}, "a")

    def test_coverage_score(self):
        latencies = {"w1": 0.01, "w2": 1.0}
        deadlines = {"w1": 0.1, "w2": 0.1}
        assert coverage_score(latencies, deadlines) == 0.5


class TestRunner:
    def test_rows_complete(self):
        runner = SuiteRunner()
        rows = runner.run([embedded_cpu(), embedded_gpu()])
        assert len(rows) == 2 * len(runner.workloads)
        assert all(row.latency_s > 0 for row in rows)

    def test_cpu_runs_everything(self):
        runner = SuiteRunner()
        rows = runner.run([embedded_cpu()])
        assert all(math.isfinite(row.latency_s) for row in rows)

    def test_widget_asic_cannot_run_suite(self):
        """The §2.3 punchline: a pure widget is infeasible on most of
        the suite."""
        runner = SuiteRunner()
        rows = runner.run([widget_asic("gemm")])
        infeasible = [r for r in rows if math.isinf(r.latency_s)]
        assert len(infeasible) >= len(runner.workloads) - 2

    def test_soc_beats_host_geomean(self):
        runner = SuiteRunner()
        host = embedded_cpu()
        soc = HeterogeneousSoC("soc", embedded_cpu("soc-host"),
                               [asic_gemm_engine()])
        rows = runner.run([host, soc])
        scores = dict(runner.ranked_scores(rows, host.name))
        assert scores["soc"] > 1.0

    def test_report_renders(self):
        runner = SuiteRunner()
        rows = runner.run([embedded_cpu()])
        text = runner.report(rows)
        assert "vio-navigation" in text
        assert "latency_ms" in text

    def test_duplicate_targets_rejected(self):
        runner = SuiteRunner()
        with pytest.raises(BenchmarkError):
            runner.run([embedded_cpu(), embedded_cpu()])

    def test_empty_targets_rejected(self):
        with pytest.raises(BenchmarkError):
            SuiteRunner().run([])
