"""Scenario codec, spec-file loader, and example-file validity tests."""

import json
from pathlib import Path

import pytest

from repro.engine.fingerprint import fingerprint
from repro.errors import SpecError
from repro.spec import (
    PLATFORMS,
    SPEC_VERSION,
    TIERS,
    DseScenario,
    FleetScenario,
    MissionScenario,
    Scenario,
    SuiteScenario,
    dump_spec,
    from_spec,
    load_scenario,
    load_spec,
    migrate_document,
    save_spec,
    to_spec,
)

from repro.system.fleet import FleetPerturbation

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scenarios"


def _dse_spec(**overrides):
    payload = {"space": {"ref": "codesign"}, "strategy": "random",
               "budget": 8, "seed": 3}
    payload.update(overrides)
    return {"kind": "scenario", "name": "s", "dse": payload}


class TestScenarioCodec:
    def test_dse_round_trip(self):
        scenario = from_spec(_dse_spec())
        assert isinstance(scenario, Scenario)
        run = scenario.run
        assert isinstance(run, DseScenario)
        assert (run.strategy, run.budget, run.seed) == ("random", 8, 3)
        assert run.objective == "suite_objective"
        clone = from_spec(json.loads(json.dumps(to_spec(scenario))))
        assert fingerprint(clone) == fingerprint(scenario)

    def test_objective_accepts_plain_string(self):
        run = from_spec(_dse_spec(objective="suite_latency")).run
        assert run.objective == "suite_latency"

    def test_suite_round_trip(self):
        scenario = from_spec({
            "kind": "scenario", "name": "s",
            "suite": {"targets": [{"ref": "embedded-cpu"},
                                  {"ref": "embedded-gpu"}]},
        })
        run = scenario.run
        assert isinstance(run, SuiteScenario)
        assert [t.name for t in run.targets] == ["embedded-cpu",
                                                 "embedded-gpu"]
        assert run.reference == "embedded-cpu"
        assert run.workloads is None and run.jobs == 1
        clone = from_spec(json.loads(json.dumps(to_spec(scenario))))
        assert fingerprint(clone) == fingerprint(scenario)

    def test_suite_explicit_workloads(self):
        run = from_spec({
            "kind": "scenario", "name": "s",
            "suite": {"targets": [{"ref": "embedded-cpu"}],
                      "workloads": [{"ref": "vio-navigation"}]},
        }).run
        assert [w.name for w in run.workloads] == ["vio-navigation"]

    def test_mission_round_trip(self):
        scenario = from_spec({
            "kind": "scenario", "name": "m",
            "mission": {
                "config": {
                    "kind": "mission",
                    "world": {"kind": "circle-world",
                              "random": {"n_obstacles": 4,
                                         "extent": 30.0, "seed": 1}},
                    "start": [1.0, 1.0], "goal": [28.0, 28.0],
                },
                "tiers": {"ref": "uav-ladder"},
                "seed": 1,
            },
        })
        run = scenario.run
        assert isinstance(run, MissionScenario)
        assert len(run.tiers) == len(TIERS.build("uav-ladder"))
        clone = from_spec(json.loads(json.dumps(to_spec(scenario))))
        assert fingerprint(clone) == fingerprint(scenario)

    def test_fleet_round_trip(self):
        scenario = from_spec(_fleet_spec())
        run = scenario.run
        assert isinstance(run, FleetScenario)
        assert (run.trials, run.seed) == (12, 7)
        assert "jobs" not in to_spec(scenario)["fleet"]
        assert run.perturbation == FleetPerturbation(
            battery_capacity=0.05, payload_mass=0.1,
            sensor_rate=0.1, workload_scale=0.3)
        assert len(run.tiers) == len(TIERS.build("uav-ladder"))
        clone = from_spec(json.loads(json.dumps(to_spec(scenario))))
        assert fingerprint(clone) == fingerprint(scenario)

    def test_fleet_defaults(self):
        run = from_spec(_fleet_spec(trials=None, seed=None, jobs=None,
                                    perturbation=None)).run
        assert (run.trials, run.seed) == (64, 0)
        assert run.perturbation == FleetPerturbation()

    def test_chunk_size_round_trips(self):
        run = from_spec(_fleet_spec(chunk_size=256)).run
        assert run.chunk_size == 256
        payload = to_spec(from_spec(_fleet_spec(chunk_size=256)))
        assert payload["fleet"]["chunk_size"] == 256
        dse = from_spec(_dse_spec(chunk_size=32)).run
        assert dse.chunk_size == 32
        assert to_spec(
            from_spec(_dse_spec(chunk_size=32)))["dse"]["chunk_size"] \
            == 32

    def test_chunk_size_defaults_to_none_and_is_omitted(self):
        assert from_spec(_fleet_spec()).run.chunk_size is None
        assert from_spec(_dse_spec()).run.chunk_size is None
        # Legacy documents stay legacy: no chunk_size key when unset.
        assert "chunk_size" not in to_spec(from_spec(_fleet_spec()))[
            "fleet"]
        assert "chunk_size" not in to_spec(from_spec(_dse_spec()))["dse"]

    def test_fleet_encode_emits_every_perturbation_axis(self):
        payload = to_spec(from_spec(_fleet_spec()))
        assert set(payload["fleet"]["perturbation"]) == {
            "battery_capacity", "payload_mass", "sensor_rate",
            "workload_scale"}

    def test_explicit_tier_list(self):
        run = from_spec({
            "kind": "scenario", "name": "m",
            "mission": {
                "config": {
                    "kind": "mission",
                    "world": {"kind": "circle-world",
                              "random": {"n_obstacles": 4,
                                         "extent": 30.0, "seed": 1}},
                    "start": [1.0, 1.0], "goal": [28.0, 28.0],
                },
                "tiers": [{"name": "t0",
                           "platform": {"ref": "embedded-cpu"},
                           "mass_kg": 0.1, "power_w": 5.0}],
            },
        }).run
        assert run.tiers[0][0] == "t0"
        assert run.tiers[0][1].name == "embedded-cpu"
        assert run.seed is None


def _fleet_spec(**overrides):
    payload = {
        "config": {
            "kind": "mission",
            "world": {"kind": "circle-world",
                      "random": {"n_obstacles": 4, "extent": 30.0,
                                 "seed": 1}},
            "start": [1.0, 1.0], "goal": [28.0, 28.0],
        },
        "tiers": {"ref": "uav-ladder"},
        "trials": 12, "seed": 7, "jobs": 1,
        "perturbation": {"battery_capacity": 0.05,
                         "payload_mass": 0.1,
                         "sensor_rate": 0.1,
                         "workload_scale": 0.3},
    }
    payload.update(overrides)
    payload = {key: value for key, value in payload.items()
               if value is not None}
    return {"kind": "scenario", "name": "f", "fleet": payload}


class TestScenarioValidation:
    def test_exactly_one_section(self):
        with pytest.raises(SpecError, match="exactly one of 'suite',"
                                            " 'mission', 'fleet',"
                                            " 'dse'"):
            from_spec({"kind": "scenario", "name": "s"})

    def test_bad_strategy(self):
        with pytest.raises(SpecError,
                           match=r"\$\.dse\.strategy: expected one of"):
            from_spec(_dse_spec(strategy="annealing"))

    def test_unknown_objective(self):
        with pytest.raises(SpecError,
                           match=r"\$\.dse\.objective: unknown"
                                 r" objective ref"):
            from_spec(_dse_spec(objective={"ref": "nope"}))

    def test_budget_and_jobs_must_be_positive(self):
        with pytest.raises(SpecError,
                           match=r"\$\.dse\.budget: must be >= 1"):
            from_spec(_dse_spec(budget=0))
        with pytest.raises(SpecError,
                           match=r"\$\.dse\.jobs: must be >= 1"):
            from_spec(_dse_spec(jobs=0))

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_fleet_jobs_other_than_one_rejected(self, jobs):
        with pytest.raises(SpecError,
                           match=r"\$\.fleet\.jobs: fleet studies run"
                                 r" in-process"):
            from_spec(_fleet_spec(jobs=jobs))

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(SpecError,
                           match=r"\$\.fleet\.chunk_size: must be"
                                 r" >= 1"):
            from_spec(_fleet_spec(chunk_size=0))
        with pytest.raises(SpecError,
                           match=r"\$\.dse\.chunk_size: must be >= 1"):
            from_spec(_dse_spec(chunk_size=-4))

    def test_fleet_trials_must_be_positive(self):
        with pytest.raises(SpecError,
                           match=r"\$\.fleet\.trials: must be >= 1"):
            from_spec(_fleet_spec(trials=0))

    def test_fleet_perturbation_width_bounds(self):
        with pytest.raises(SpecError,
                           match=r"\$\.fleet\.perturbation: "
                                 r"battery_capacity width"):
            from_spec(_fleet_spec(
                perturbation={"battery_capacity": 1.5}))

    def test_fleet_perturbation_rejects_unknown_axis(self):
        with pytest.raises(SpecError,
                           match=r"\$\.fleet\.perturbation: unknown"
                                 r" field\(s\) 'wind'"):
            from_spec(_fleet_spec(perturbation={"wind": 0.1}))

    def test_reference_must_be_a_target(self):
        with pytest.raises(SpecError,
                           match=r"\$\.suite\.reference: 'gpu' is not"
                                 r" a target name"):
            from_spec({"kind": "scenario", "name": "s",
                       "suite": {"targets": [{"ref": "embedded-cpu"}],
                                 "reference": "gpu"}})

    def test_duplicate_targets_rejected(self):
        with pytest.raises(SpecError,
                           match=r"\$\.suite\.targets: duplicate"):
            from_spec({"kind": "scenario", "name": "s",
                       "suite": {"targets": [{"ref": "embedded-cpu"},
                                             {"ref": "embedded-cpu"}]}})


class TestLoader:
    def test_migrate_requires_version(self):
        with pytest.raises(SpecError,
                           match="missing required field"
                                 " 'spec_version'"):
            migrate_document({"kind": "battery"})

    def test_migrate_rejects_newer_versions(self):
        with pytest.raises(SpecError, match="newer version of repro"):
            migrate_document({"spec_version": SPEC_VERSION + 1,
                              "kind": "battery"})
        with pytest.raises(SpecError,
                           match=r"\$\.spec_version: must be >= 1"):
            migrate_document({"spec_version": 0, "kind": "battery"})

    def test_migrate_strips_stamp(self):
        assert migrate_document({"spec_version": 1, "kind": "battery"}) \
            == {"kind": "battery"}

    def test_save_and_load_spec(self, tmp_path):
        platform = PLATFORMS.build("midrange-fpga")
        path = tmp_path / "fpga.json"
        save_spec(platform, str(path))
        document = json.loads(path.read_text())
        assert document["spec_version"] == SPEC_VERSION
        clone = load_spec(str(path))
        assert fingerprint(clone) == fingerprint(platform)

    def test_dump_spec_stamps_version(self):
        document = dump_spec(PLATFORMS.build("embedded-cpu"))
        assert document["spec_version"] == SPEC_VERSION
        assert document["kind"] == "cpu"

    def test_load_document_errors(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec file"):
            load_spec(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SpecError, match="not valid JSON"):
            load_spec(str(bad))

    def test_load_scenario_rejects_non_scenarios(self, tmp_path):
        path = tmp_path / "battery.json"
        save_spec(
            from_spec({"kind": "battery"}), str(path))
        with pytest.raises(SpecError,
                           match="expected a scenario spec,"
                                 " got kind 'battery'"):
            load_scenario(str(path))


class TestExampleScenarios:
    @pytest.mark.parametrize("filename", [
        "uav_codesign.json", "suite_catalog.json",
        "patrol_mission.json", "fleet_montecarlo.json",
        "funnel_dse.json",
    ])
    def test_example_loads(self, filename):
        scenario = load_scenario(str(EXAMPLES / filename))
        assert isinstance(scenario, Scenario)

    def test_examples_dir_is_exhaustive(self):
        assert sorted(p.name for p in EXAMPLES.glob("*.json")) == [
            "fleet_montecarlo.json", "funnel_dse.json",
            "patrol_mission.json", "suite_catalog.json",
            "uav_codesign.json",
        ]

    def test_funnel_dse_mirrors_programmatic_funnel(self):
        from repro.dse.funnel import PromotionGate
        from repro.dse.objectives import codesign_space_xl

        run = load_scenario(str(EXAMPLES / "funnel_dse.json")).run
        assert isinstance(run, DseScenario)
        assert run.space == codesign_space_xl()
        assert (run.objective, run.strategy, run.budget, run.seed) == \
            ("mission_objective", "funnel", 4000, 7)
        assert run.funnel is not None
        assert run.funnel.inner == "random"
        assert run.funnel.gates == (
            PromotionGate(top_fraction=0.05),
            PromotionGate(top_fraction=0.2, budget=64),
        )

    def test_uav_codesign_mirrors_programmatic_dse(self):
        from repro.dse.objectives import codesign_space

        run = load_scenario(str(EXAMPLES / "uav_codesign.json")).run
        assert isinstance(run, DseScenario)
        assert run.space == codesign_space()
        assert (run.objective, run.strategy, run.budget, run.seed) == \
            ("suite_objective", "random", 8, 3)

    def test_suite_catalog_mirrors_cli_targets(self):
        run = load_scenario(str(EXAMPLES / "suite_catalog.json")).run
        assert isinstance(run, SuiteScenario)
        assert [t.name for t in run.targets] == [
            "embedded-cpu", "desktop-cpu", "embedded-gpu",
            "midrange-fpga", "gemm-soc",
        ]
