"""Unit tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("suite", "mission", "fleet", "fig1", "dse"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_suite_accepts_jobs_and_cache(self):
        args = build_parser().parse_args(
            ["suite", "--jobs", "4", "--cache", "/tmp/c"])
        assert args.jobs == 4 and args.cache == "/tmp/c"

    def test_dse_defaults(self):
        args = build_parser().parse_args(["dse"])
        assert args.strategy == "surrogate"
        assert args.jobs == 1 and args.cache is None


class TestFig1Command:
    def test_prints_trend(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "2024" in out
        assert "CAGR" in out


class TestAuditCommand:
    def test_bad_plan_exits_nonzero(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "name": "naive",
            "accelerated_categories": ["gemm"],
            "metrics": ["throughput"],
        }))
        assert main(["audit", str(plan)]) == 1
        out = capsys.readouterr().out
        assert "score" in out
        assert "build-bridges" in out

    def test_clean_plan_exits_zero(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "name": "playbook",
            "accelerated_categories": ["gemm"],
            "metrics": ["success_rate", "mission_energy_j"],
            "evaluated_workloads": ["a", "b", "c"],
            "baseline_platforms": ["cpu", "gpu"],
            "end_to_end": True,
            "closed_loop": True,
            "expert_consultations": 2,
            "integrates_with_middleware": True,
            "system_budget_accounted": True,
            "shared_resource_analysis": True,
            "lifecycle_analysis": True,
        }))
        assert main(["audit", str(plan)]) == 0


class TestVerifyCommand:
    def test_feasible_pipeline(self, tmp_path, capsys):
        dsl = tmp_path / "p.dsl"
        dsl.write_text(
            "pipeline p @ 30Hz\nstage a: harris(image_size=480)\n"
        )
        assert main(["verify", str(dsl)]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_infeasible_pipeline(self, tmp_path, capsys):
        dsl = tmp_path / "p.dsl"
        dsl.write_text(
            "pipeline p @ 30Hz\n"
            "stage big: gemm(m=2048, n=2048, k=2048)\n"
        )
        assert main(["verify", str(dsl)]) == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_unknown_platform(self, tmp_path, capsys):
        dsl = tmp_path / "p.dsl"
        dsl.write_text(
            "pipeline p @ 30Hz\nstage a: harris(image_size=64)\n"
        )
        assert main(["verify", str(dsl),
                     "--platform", "quantum"]) == 2


class TestSuiteCommand:
    def test_runs_and_ranks(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "Suite scores" in out
        assert "embedded-cpu" in out

    def test_json_output_matches_table(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["suite", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        document = json.loads(path.read_text())
        # The results table has one line per row between its header
        # separator and the blank line before the scores table.
        table = out.split("Benchmark suite results")[1] \
            .split("Suite scores")[0]
        table_rows = [line for line in table.splitlines()
                      if " | " in line and "latency_ms" not in line]
        rows = document["rows"]
        assert len(rows) == len(table_rows)
        for row in rows:
            assert {"workload", "target", "latency_s", "energy_j",
                    "deadline_s", "wall_time_s",
                    "meets_deadline"} <= set(row)
        assert document["scores"]
        assert "provenance" in document
        assert document["metrics"]["suite.rows"]["value"] == len(rows)

    def test_trace_out_is_valid_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["suite", "--trace-out", str(path)]) == 0
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert events
        assert all("ph" in e and "ts" in e and "name" in e
                   for e in events)


class TestSuiteCacheAndJobs:
    def test_parallel_json_matches_serial(self, tmp_path, capsys):
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(["suite", "--json", str(serial_path)]) == 0
        assert main(["suite", "--json", str(parallel_path),
                     "--jobs", "4"]) == 0
        capsys.readouterr()
        serial = json.loads(serial_path.read_text())
        parallel = json.loads(parallel_path.read_text())
        assert serial["rows"] == parallel["rows"]
        assert serial["scores"] == parallel["scores"]

    def test_warm_cache_answers_without_misses(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cold_path = tmp_path / "cold.json"
        warm_path = tmp_path / "warm.json"
        assert main(["suite", "--cache", str(cache_dir),
                     "--json", str(cold_path)]) == 0
        assert main(["suite", "--cache", str(cache_dir),
                     "--json", str(warm_path)]) == 0
        out = capsys.readouterr().out
        assert "0 miss(es)" in out
        cold = json.loads(cold_path.read_text())
        warm = json.loads(warm_path.read_text())
        assert cold["rows"] == warm["rows"]


class TestDseCommand:
    def test_random_strategy_runs(self, capsys):
        assert main(["dse", "--strategy", "random",
                     "--budget", "6"]) == 0
        out = capsys.readouterr().out
        assert "peak_gflops" in out
        assert "oracle calls: 6" in out

    def test_bad_budget_exits_nonzero(self, capsys):
        assert main(["dse", "--budget", "0"]) == 2

    def test_cache_warm_rerun_identical_with_zero_oracle_calls(
            self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        first_path = tmp_path / "first.json"
        second_path = tmp_path / "second.json"
        assert main(["dse", "--strategy", "random", "--budget", "8",
                     "--seed", "3", "--cache", str(cache_dir),
                     "--json", str(first_path)]) == 0
        assert main(["dse", "--strategy", "random", "--budget", "8",
                     "--seed", "3", "--cache", str(cache_dir),
                     "--jobs", "2",
                     "--json", str(second_path)]) == 0
        out = capsys.readouterr().out
        assert "oracle calls: 0" in out
        first = json.loads(first_path.read_text())
        second = json.loads(second_path.read_text())
        assert first["best_config"] == second["best_config"]
        assert first["best_value"] == second["best_value"]
        assert first["trace"] == second["trace"]
        assert first["engine"]["oracle_calls"] == 8
        assert second["engine"]["oracle_calls"] == 0


class TestMissionCommand:
    def test_sweep_runs(self, capsys):
        assert main(["mission", "--laps", "2"]) == 0
        out = capsys.readouterr().out
        assert "tier0" in out and "tier4" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "mission.json"
        assert main(["mission", "--laps", "2",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        document = json.loads(path.read_text())
        tiers = [row["tier"] for row in document["rows"]]
        assert tiers == sorted(tiers)  # ladder order preserved
        assert all(name in out for name in tiers)
        assert document["provenance"]["seed"] == 11
        for row in document["rows"]:
            assert "energy_j" in row and "safe_speed_m_s" in row


class TestFleetCommand:
    def test_monte_carlo_runs(self, capsys):
        assert main(["fleet", "--laps", "2", "--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert "Fleet Monte Carlo" in out
        assert "best tier:" in out
        assert "batch-priced:" in out

    def test_json_and_trace_output(self, tmp_path, capsys):
        json_path = tmp_path / "fleet.json"
        trace_path = tmp_path / "fleet_trace.json"
        assert main(["fleet", "--laps", "2", "--trials", "4",
                     "--json", str(json_path),
                     "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        document = json.loads(json_path.read_text())
        tiers = [row["tier"] for row in document["tiers"]]
        assert tiers == sorted(tiers)  # ladder order preserved
        assert document["rollouts"] == 4 * len(tiers)
        # The whole catalog ladder is SoA-priceable: no fallbacks.
        assert document["batch_priced"] == document["rollouts"]
        assert document["scalar_fallback"] == 0
        assert document["metrics"]["fleet.rollouts"]["value"] == \
            document["rollouts"]
        assert document["best_tier"] in tiers
        trace = json.loads(trace_path.read_text())
        assert any(event.get("name") == "fleet.run"
                   for event in trace["traceEvents"])

    def test_bad_trials_exits_nonzero(self, capsys):
        assert main(["fleet", "--trials", "0"]) == 2
        assert "--trials" in capsys.readouterr().err

    def test_bad_jobs_exits_nonzero(self, capsys):
        assert main(["fleet", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_parallel_jobs_refused(self, capsys):
        assert main(["fleet", "--laps", "2", "--trials", "4",
                     "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert "in-process" in captured.err
        assert "Fleet Monte Carlo" not in captured.out


class TestTraceCommand:
    def test_pipeline_trace_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["trace", "pipeline", "--duration", "0.5",
                     "--out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        document = json.loads(trace.read_text())
        events = document["traceEvents"]
        assert all("ph" in e and "ts" in e and "name" in e
                   for e in events)
        assert any(e["ph"] == "X" for e in events)
        metrics_doc = json.loads(metrics.read_text())
        assert metrics_doc["metrics"]["pipeline.emitted"]["value"] > 0

    def test_scheduler_trace(self, tmp_path, capsys):
        trace = tmp_path / "sched.json"
        assert main(["trace", "scheduler", "--policy", "edf",
                     "--duration", "0.5", "--overload",
                     "--out", str(trace)]) == 0
        document = json.loads(trace.read_text())
        names = {e["name"] for e in document["traceEvents"]}
        assert "release" in names
        assert "miss" in names  # overload must miss deadlines

    def test_summary_of_exported_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["trace", "pipeline", "--duration", "0.5",
                     "--out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Span tracks" in out
        assert "stage:" in out

    def test_unknown_workload_exits_nonzero(self, tmp_path, capsys):
        assert main(["trace", "pipeline", "--workload", "nope",
                     "--out", str(tmp_path / "t.json")]) == 2
