"""E2E tests for ``repro run`` and ``repro spec``.

The load-bearing property: a scenario file reproduces the matching
programmatic CLI invocation *exactly* — same results, and same engine
cache keys, so a cache primed by the programmatic run is replayed with
zero oracle calls when the equivalent spec file runs.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = Path(__file__).resolve().parents[1] / "examples" / "scenarios"


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def _canon(document, *drop):
    """A comparable form: strip measurement-only sections (provenance
    timestamps, wall-clock/cache-counter metrics) and canonicalize."""
    for key in ("provenance",) + drop:
        document.pop(key, None)
    return json.dumps(document, sort_keys=True)


class TestDseEquivalence:
    def test_scenario_replays_programmatic_cache(self, tmp_path,
                                                 capsys):
        cache = str(tmp_path / "cache")
        programmatic = tmp_path / "programmatic.json"
        replayed = tmp_path / "replayed.json"

        # Programmatic run primes the cache...
        assert main(["dse", "--strategy", "random", "--budget", "8",
                     "--seed", "3", "--cache", cache,
                     "--json", str(programmatic)]) == 0
        capsys.readouterr()

        # ...and the equivalent scenario file replays it entirely.
        assert main(["run", str(EXAMPLES / "uav_codesign.json"),
                     "--cache", cache, "--json", str(replayed)]) == 0
        out = capsys.readouterr().out
        assert "scenario 'uav-codesign'" in out
        assert "oracle calls: 0 (cache hits: 8, jobs: 1)" in out

        first, second = _load(programmatic), _load(replayed)
        # The engine section is cache-hit counters (0 hits cold, 8
        # warm) — a measurement, not a result.
        assert _canon(first, "engine") == _canon(second, "engine")
        assert first["best_config"] == second["best_config"]
        assert first["trace"] == second["trace"]


class TestSuiteEquivalence:
    def test_scenario_replays_programmatic_cache(self, tmp_path,
                                                 capsys):
        cache = str(tmp_path / "cache")
        programmatic = tmp_path / "programmatic.json"
        replayed = tmp_path / "replayed.json"

        assert main(["suite", "--cache", cache,
                     "--json", str(programmatic)]) == 0
        capsys.readouterr()

        assert main(["run", str(EXAMPLES / "suite_catalog.json"),
                     "--cache", cache, "--json", str(replayed)]) == 0
        out = capsys.readouterr().out
        rows = len(_load(programmatic)["rows"])
        assert (f"result cache: {rows} hit(s) ({rows} from disk),"
                " 0 miss(es)") in out

        first, second = _load(programmatic), _load(replayed)
        # Rows and scores are results and must match to the byte;
        # metrics hold wall-clock histograms and cache counters.
        assert json.dumps(first["rows"]) == json.dumps(second["rows"])
        assert json.dumps(first["scores"]) == \
            json.dumps(second["scores"])


class TestMissionEquivalence:
    def test_scenario_matches_programmatic_run(self, tmp_path, capsys):
        programmatic = tmp_path / "programmatic.json"
        replayed = tmp_path / "replayed.json"

        assert main(["mission", "--laps", "2", "--seed", "11",
                     "--json", str(programmatic)]) == 0
        assert main(["run", str(EXAMPLES / "patrol_mission.json"),
                     "--json", str(replayed)]) == 0
        capsys.readouterr()

        assert _canon(_load(programmatic)) == _canon(_load(replayed))


class TestFleetEquivalence:
    def test_scenario_matches_programmatic_run(self, tmp_path, capsys):
        programmatic = tmp_path / "programmatic.json"
        replayed = tmp_path / "replayed.json"

        assert main(["fleet", "--laps", "20", "--trials", "64",
                     "--seed", "0", "--world-seed", "11",
                     "--json", str(programmatic)]) == 0
        assert main(["run", str(EXAMPLES / "fleet_montecarlo.json"),
                     "--json", str(replayed)]) == 0
        out = capsys.readouterr().out
        assert "scenario 'fleet-montecarlo'" in out

        assert _canon(_load(programmatic)) == _canon(_load(replayed))

    def test_parallel_jobs_refused(self, tmp_path, capsys):
        scenario = str(EXAMPLES / "fleet_montecarlo.json")
        assert main(["run", scenario, "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert "in-process" in captured.err
        assert "Fleet Monte Carlo" not in captured.out
        assert main(["run", scenario, "--jobs", "1"]) == 0


class TestRunCommand:
    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_non_scenario_spec_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "battery.json"
        path.write_text('{"spec_version": 1, "kind": "battery"}\n')
        assert main(["run", str(path)]) == 2
        assert "expected a scenario spec" in capsys.readouterr().err

    def test_trace_out_noted_for_dse(self, tmp_path, capsys):
        assert main(["run", str(EXAMPLES / "uav_codesign.json"),
                     "--cache", str(tmp_path / "c"),
                     "--trace-out", str(tmp_path / "t.json")]) == 0
        assert "--trace-out is ignored for dse scenarios" in \
            capsys.readouterr().err


class TestSpecCommand:
    def test_validate_all_examples(self, capsys):
        files = sorted(str(p) for p in EXAMPLES.glob("*.json"))
        assert len(files) == 5
        assert main(["spec", "validate"] + files) == 0
        out = capsys.readouterr().out
        assert out.count("OK      ") == 5
        assert "(scenario)" in out

    def test_validate_reports_invalid_files(self, tmp_path, capsys):
        good = str(EXAMPLES / "uav_codesign.json")
        bad = tmp_path / "bad.json"
        bad.write_text('{"spec_version": 1, "kind": "cpu"}\n')
        assert main(["spec", "validate", good, str(bad)]) == 1
        out = capsys.readouterr().out
        assert "OK      " in out and f"INVALID {bad}" in out

    def test_show_normalizes_the_document(self, capsys):
        assert main(["spec", "show",
                     str(EXAMPLES / "suite_catalog.json")]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["spec_version"] == 1
        assert document["kind"] == "scenario"
        # Normalization fills defaults the author omitted.
        assert document["suite"]["reference"] == "embedded-cpu"

    def test_show_bad_file_exits_2(self, tmp_path, capsys):
        assert main(["spec", "show",
                     str(tmp_path / "nope.json")]) == 2
        assert "cannot read spec file" in capsys.readouterr().err


@pytest.mark.parametrize("filename", [
    "uav_codesign.json", "suite_catalog.json", "patrol_mission.json",
    "fleet_montecarlo.json",
])
def test_show_round_trips_examples(filename, capsys):
    """``spec show`` output is itself a valid, equivalent spec file."""
    from repro.engine.fingerprint import fingerprint
    from repro.spec import from_spec, load_spec, migrate_document

    assert main(["spec", "show", str(EXAMPLES / filename)]) == 0
    document = json.loads(capsys.readouterr().out)
    reparsed = from_spec(migrate_document(document))
    original = load_spec(str(EXAMPLES / filename))
    assert fingerprint(reparsed) == fingerprint(original)
