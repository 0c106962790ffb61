"""Unit tests for the perf ledger: records, baselines, and the gate."""

import json

import pytest

from repro.bench import (
    BASELINES_SCHEMA,
    LEDGER_SCHEMA,
    Benchmark,
    Metric,
    append_records,
    baselines_from_records,
    check_monotone,
    check_records,
    ledger_record,
    load_baselines,
    merge_baselines,
    read_ledger,
    write_baselines,
)
from repro.errors import BenchmarkError


def _benchmark(higher_is_better=True):
    return Benchmark(
        name="toy",
        description="toy",
        sizes=(10,),
        smoke_sizes=(4,),
        metrics=(
            Metric("rate", unit="1/s"),
            Metric("speedup", unit="x", gate=True,
                   higher_is_better=higher_is_better),
        ),
        runner=lambda size: {"rate": 1.0, "speedup": 1.0},
    )


def _record(speedup, size=10, benchmark="toy"):
    return ledger_record(benchmark, size,
                         {"rate": 100.0, "speedup": speedup},
                         wall_time_s=0.5, seed=7)


class TestLedgerRecords:
    def test_record_is_provenance_stamped(self):
        record = _record(2.0)
        assert record["schema"] == LEDGER_SCHEMA
        assert record["benchmark"] == "toy"
        assert record["size"] == 10
        assert record["metrics"]["speedup"] == 2.0
        assert record["wall_time_s"] == 0.5
        assert record["peak_rss_kb"] is None or \
            record["peak_rss_kb"] > 0
        provenance = record["provenance"]
        assert provenance["seed"] == 7
        assert provenance["python"] and provenance["numpy"]
        assert "hostname_sha" in provenance["machine"]

    def test_append_and_read_round_trip(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        assert read_ledger(path) == []  # absent file reads empty
        assert append_records(path, [_record(2.0)]) == 1
        assert append_records(path, [_record(3.0), _record(4.0)]) == 2
        assert append_records(path, []) == 0
        records = read_ledger(path)
        assert [r["metrics"]["speedup"] for r in records] == \
            [2.0, 3.0, 4.0]

    def test_read_rejects_corrupt_line_with_location(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(BenchmarkError, match="2"):
            read_ledger(str(path))


class TestBaselines:
    def test_from_records_last_wins_and_round_trips(self, tmp_path):
        document = baselines_from_records(
            [_record(2.0), _record(5.0)], source="measured")
        assert document["schema"] == BASELINES_SCHEMA
        assert len(document["entries"]) == 1
        entry = document["entries"][0]
        assert entry["metrics"]["speedup"] == 5.0
        assert entry["source"] == "measured"
        assert "machine" in entry

        path = str(tmp_path / "base.json")
        write_baselines(path, document)
        loaded = load_baselines(path)
        assert loaded[("toy", 10)]["metrics"]["speedup"] == 5.0

    def test_load_missing_is_empty_and_bad_schema_raises(
            self, tmp_path):
        assert load_baselines(str(tmp_path / "nope.json")) == {}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(BenchmarkError, match="schema"):
            load_baselines(str(bad))

    def test_merge_keeps_old_keys_and_overrides_matching(
            self, tmp_path):
        path = str(tmp_path / "base.json")
        write_baselines(path, baselines_from_records(
            [_record(2.0), _record(9.0, size=20)]))
        merged = merge_baselines(
            path, baselines_from_records([_record(5.0)]))
        by_key = {(e["benchmark"], e["size"]): e
                  for e in merged["entries"]}
        assert by_key[("toy", 10)]["metrics"]["speedup"] == 5.0
        assert by_key[("toy", 20)]["metrics"]["speedup"] == 9.0


class TestRegressionGate:
    def _check(self, measured, baseline, threshold=0.15,
               higher_is_better=True):
        checks = check_records(
            [_record(measured)],
            {("toy", 10): {"metrics": {"speedup": baseline}}},
            {"toy": _benchmark(higher_is_better)},
            threshold=threshold)
        assert len(checks) == 1
        return checks[0]

    def test_within_threshold_passes(self):
        check = self._check(measured=9.0, baseline=10.0)
        assert check.change == pytest.approx(-0.10)
        assert not check.regressed

    def test_beyond_threshold_regresses(self):
        check = self._check(measured=8.0, baseline=10.0)
        assert check.change == pytest.approx(-0.20)
        assert check.regressed

    def test_improvement_never_regresses(self):
        assert not self._check(measured=20.0, baseline=10.0).regressed

    def test_lower_is_better_flips_direction(self):
        # ratio 1.0 -> 1.5 is a regression when lower is better
        check = self._check(measured=1.5, baseline=1.0,
                            higher_is_better=False)
        assert check.change == pytest.approx(-0.5)
        assert check.regressed
        assert not self._check(measured=0.5, baseline=1.0,
                               higher_is_better=False).regressed

    def test_gate_skips_unknown_and_ungated(self):
        # no baseline for the size -> no comparison
        checks = check_records(
            [_record(1.0, size=99)],
            {("toy", 10): {"metrics": {"speedup": 10.0}}},
            {"toy": _benchmark()}, threshold=0.1)
        assert checks == []
        # ungated metrics (rate) are never compared
        checks = check_records(
            [_record(10.0)],
            {("toy", 10): {"metrics": {"speedup": 10.0,
                                       "rate": 1e9}}},
            {"toy": _benchmark()}, threshold=0.1)
        assert [c.metric for c in checks] == ["speedup"]

    def test_negative_threshold_rejected(self):
        with pytest.raises(BenchmarkError, match="threshold"):
            check_records([], {}, {}, threshold=-0.1)


def _monotone_benchmark():
    return Benchmark(
        name="sweep",
        description="toy size sweep",
        sizes=(10, 100, 1000),
        smoke_sizes=(10,),
        metrics=(
            Metric("rate", unit="1/s"),
            Metric("speedup", unit="x", monotone=True),
        ),
        runner=lambda size: {"rate": 1.0, "speedup": 1.0},
    )


def _sweep_records(speedups):
    return [ledger_record("sweep", size,
                          {"rate": 50.0, "speedup": speedup},
                          wall_time_s=0.1, seed=0)
            for size, speedup in speedups]


class TestMonotoneGate:
    BENCHMARKS = {"sweep": _monotone_benchmark()}

    def test_non_decreasing_sweep_passes(self):
        checks = check_monotone(
            _sweep_records([(10, 5.0), (100, 5.5), (1000, 6.0)]),
            self.BENCHMARKS)
        assert len(checks) == 2
        assert not any(c.violated for c in checks)

    def test_tolerance_allows_small_dips(self):
        # 5.0 -> 4.6 is a 8% dip: inside the 0.9 floor.
        checks = check_monotone(
            _sweep_records([(10, 5.0), (100, 4.6)]), self.BENCHMARKS)
        assert [c.violated for c in checks] == [False]

    def test_collapse_is_flagged_with_context(self):
        checks = check_monotone(
            _sweep_records([(10, 25.0), (100, 26.0), (1000, 19.0)]),
            self.BENCHMARKS)
        assert [c.violated for c in checks] == [False, True]
        bad = checks[-1]
        assert (bad.prev_size, bad.size) == (100, 1000)
        assert (bad.prev_value, bad.value) == (26.0, 19.0)
        assert bad.metric == "speedup"

    def test_records_arrive_unordered_last_per_size_wins(self):
        records = _sweep_records(
            [(1000, 1.0), (10, 5.0), (1000, 6.0)])  # rerun at 1000
        checks = check_monotone(records, self.BENCHMARKS)
        assert [c.violated for c in checks] == [False]
        assert checks[0].value == 6.0

    def test_single_size_and_unmarked_metrics_contribute_nothing(self):
        assert check_monotone(_sweep_records([(10, 5.0)]),
                              self.BENCHMARKS) == []
        # "toy" has no monotone metrics at all.
        records = [_record(5.0, size=10), _record(1.0, size=100)]
        assert check_monotone(records, {"toy": _benchmark()}) == []

    def test_unknown_benchmark_is_skipped(self):
        assert check_monotone(
            _sweep_records([(10, 5.0), (100, 1.0)]), {}) == []

    def test_bad_tolerance_rejected(self):
        with pytest.raises(BenchmarkError, match="tolerance"):
            check_monotone([], self.BENCHMARKS, tolerance=0.0)
