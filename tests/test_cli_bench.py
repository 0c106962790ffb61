"""CLI tests for ``repro bench`` and ``repro fleet --profile-out``.

These drive the performance observatory end to end through ``main``:
registered benchmarks run, provenance-stamped records land in the
ledger, the regression gate flips the exit code, and the span-scoped
fleet profile reports per-phase hotspots plus exact allocation
counters.
"""

import json

import pytest

from repro.bench import baselines_from_records, write_baselines
from repro.cli import build_parser, main


def _run_bench(tmp_path, *extra):
    """One tiny batch_pricing run against throwaway artifacts."""
    ledger = tmp_path / "ledger.jsonl"
    argv = ["bench", "--filter", "batch_pricing", "--sizes", "8",
            "--ledger", str(ledger), *extra]
    return main(argv), ledger


class TestBenchParser:
    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.filter == ""
        assert args.ledger == "BENCH_LEDGER.jsonl"
        assert args.baselines == "BENCH_BASELINES.json"
        assert args.threshold == 0.15
        assert not args.check and not args.full


class TestBenchList:
    def test_lists_registered_entries(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("batch_pricing", "fleet_missions",
                     "engine_parallel", "obs_overhead"):
            assert name in out

    def test_filter_narrows_listing(self, capsys):
        assert main(["bench", "--list", "--filter", "fleet"]) == 0
        out = capsys.readouterr().out
        assert "fleet_missions" in out
        assert "batch_pricing" not in out


class TestBenchRun:
    def test_appends_provenance_stamped_ledger_records(
            self, tmp_path, capsys):
        json_path = tmp_path / "run.json"
        code, ledger = _run_bench(tmp_path, "--seed", "3",
                                  "--json", str(json_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "batch_pricing" in out and "speedup" in out

        lines = [json.loads(line) for line in
                 ledger.read_text().splitlines()]
        assert len(lines) == 1
        record = lines[0]
        assert record["schema"] == "repro-bench-ledger/1"
        assert record["benchmark"] == "batch_pricing"
        assert record["size"] == 8
        assert record["metrics"]["speedup"] > 0
        assert record["wall_time_s"] > 0
        assert record["peak_rss_kb"] is None or \
            record["peak_rss_kb"] > 0
        provenance = record["provenance"]
        assert provenance["seed"] == 3
        assert provenance["git_sha"]
        assert provenance["python"] and provenance["numpy"]
        assert "hostname_sha" in provenance["machine"]

        document = json.loads(json_path.read_text())
        assert document["schema"] == "repro-bench-run/1"
        assert document["records"][0]["benchmark"] == "batch_pricing"

    def test_no_ledger_skips_append(self, tmp_path, capsys):
        code, ledger = _run_bench(tmp_path, "--no-ledger")
        assert code == 0
        assert not ledger.exists()

    def test_unknown_filter_exits_2(self, tmp_path, capsys):
        code, _ = _run_bench(tmp_path)  # warm: proves filter works
        assert code == 0
        assert main(["bench", "--filter", "no_such_bench"]) == 2
        assert "no benchmark matches" in capsys.readouterr().err

    def test_bad_sizes_exit_2(self, capsys):
        assert main(["bench", "--sizes", "ten"]) == 2
        assert "--sizes" in capsys.readouterr().err


class TestBenchCheck:
    def _baselines(self, tmp_path, speedup):
        """A baselines file claiming batch_pricing@8 hit ``speedup``."""
        path = tmp_path / "baselines.json"
        write_baselines(str(path), baselines_from_records([{
            "benchmark": "batch_pricing",
            "size": 8,
            "metrics": {"speedup": speedup},
        }]))
        return path

    def test_check_passes_against_modest_baseline(
            self, tmp_path, capsys):
        baselines = self._baselines(tmp_path, speedup=0.1)
        code, _ = _run_bench(tmp_path, "--check",
                             "--baselines", str(baselines))
        assert code == 0
        assert "[ok]" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tmp_path, capsys):
        baselines = self._baselines(tmp_path, speedup=10_000.0)
        code, _ = _run_bench(tmp_path, "--check",
                             "--baselines", str(baselines))
        assert code == 1
        captured = capsys.readouterr()
        assert "[REGRESSION]" in captured.out
        assert "regression(s)" in captured.err

    def test_warn_only_reports_but_exits_zero(self, tmp_path, capsys):
        baselines = self._baselines(tmp_path, speedup=10_000.0)
        code, _ = _run_bench(tmp_path, "--check", "--warn-only",
                             "--baselines", str(baselines))
        assert code == 0
        assert "[REGRESSION]" in capsys.readouterr().out

    def test_update_baselines_then_check_is_clean(
            self, tmp_path, capsys):
        baselines = tmp_path / "baselines.json"
        code, _ = _run_bench(tmp_path, "--update-baselines",
                             "--baselines", str(baselines))
        assert code == 0
        assert baselines.exists()
        # relative drift between two back-to-back runs stays far
        # inside a permissive threshold
        code, _ = _run_bench(tmp_path, "--check", "--threshold", "5.0",
                             "--baselines", str(baselines))
        assert code == 0


class TestBenchMonotoneGate:
    """The same-run monotonicity gate: machine-independent, so it must
    hard-fail even under ``--warn-only`` (unlike baseline deltas)."""

    def _register(self, speedups):
        from repro.bench import REGISTRY, Benchmark, Metric

        REGISTRY.register(Benchmark(
            name="toy_sweep",
            description="toy monotone sweep",
            sizes=tuple(sorted(speedups)),
            smoke_sizes=(min(speedups),),
            metrics=(Metric("speedup", unit="x", monotone=True),),
            runner=lambda size: {"speedup": speedups[size]},
        ))

    @pytest.fixture(autouse=True)
    def _cleanup(self):
        from repro.bench import REGISTRY

        yield
        REGISTRY._entries.pop("toy_sweep", None)

    def _run(self, tmp_path, speedups, *extra):
        self._register(speedups)
        return main(["bench", "--check", "--filter", "toy_sweep",
                     "--full", "--ledger",
                     str(tmp_path / "ledger.jsonl"), *extra])

    def test_monotone_sweep_passes(self, tmp_path, capsys):
        code = self._run(tmp_path, {8: 5.0, 64: 6.0})
        assert code == 0
        assert "[NON-MONOTONE]" not in capsys.readouterr().out

    def test_collapse_fails_even_with_warn_only(self, tmp_path,
                                                capsys):
        code = self._run(tmp_path, {8: 25.0, 64: 19.0}, "--warn-only")
        assert code == 1
        captured = capsys.readouterr()
        assert "[NON-MONOTONE]" in captured.out
        assert "monotonicity violation" in captured.err

    def test_tolerance_flag_loosens_the_floor(self, tmp_path):
        assert self._run(tmp_path, {8: 25.0, 64: 19.0},
                         "--monotone-tolerance", "0.5") == 0

    def test_violations_land_in_json_report(self, tmp_path):
        report = tmp_path / "report.json"
        self._run(tmp_path, {8: 25.0, 64: 19.0},
                  "--json", str(report))
        document = json.loads(report.read_text())
        assert document["monotone_violations"] == 1
        checks = document["monotone_checks"]
        assert checks[0]["violated"] is True
        assert (checks[0]["prev_size"], checks[0]["size"]) == (8, 64)


class TestFleetProfileOut:
    def test_profile_reports_phases_and_alloc_counters(
            self, tmp_path, capsys):
        profile_path = tmp_path / "fleet_profile.json"
        assert main(["fleet", "--laps", "2", "--trials", "4",
                     "--profile-out", str(profile_path)]) == 0
        out = capsys.readouterr().out
        assert "Per-phase profile" in out
        assert "Merged hotspots" in out
        assert "B/rollout" in out

        document = json.loads(profile_path.read_text())
        assert document["schema"] == "repro-profile/1"
        names = [r["name"] for r in document["profile"]["records"]]
        assert names == ["fleet.plan", "fleet.gather", "fleet.price",
                         "fleet.solve", "fleet.emit"]
        # every phase span timed; at least one owns a cProfile capture
        assert all(r["wall_s"] >= 0 for r in
                   document["profile"]["records"])
        assert any(r["cpu_captured"] for r in
                   document["profile"]["records"])
        assert document["profile"]["hotspots"]
        # exact allocation accounting from both instrumented kernels
        sites = document["alloc_sites"]
        assert sites["system.fleet.run_fleet"]["bytes"] > 0
        assert sites["hw.batch.batch_estimate"]["bytes"] > 0
        assert document["alloc_bytes"] > 0
        assert document["alloc_bytes_per_rollout"] > 0
        assert document["provenance"]["git_sha"]
