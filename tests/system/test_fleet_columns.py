"""The column-native study path equals the rollout-object path.

:class:`FleetStudy` gathers, prices and summarizes its population as
columns built straight from the factor matrix, and builds rollout and
result rows only when they are read.  The reference here is the path
every rollout object goes through: ``run_fleet(list(study.rollouts()))``
for the results, and the row loop the summary used to run for the
statistics.  Comparisons are NaN-aware (``repr`` of rows, and
``assert_array_equal`` on columns), because an infinite frame workload
yields NaN distance and speed on both paths.
"""

import dataclasses
import math

import numpy as np
import pytest

import repro.system.fleet as fleet_module
from repro.engine.arena import BatchArena
from repro.errors import ConfigurationError, ProfileError
from repro.hw.catalog import midrange_fpga, uav_compute_tiers
from repro.hw.platform import AnalyticalPlatform, PlatformConfig
from repro.kernels.planning import CircleWorld
from repro.system.fleet import (
    FleetPerturbation,
    FleetStudy,
    _perturbed_population,
    _study_columns,
    run_fleet,
    tier_rollouts,
)
from repro.system.mission import MissionConfig, default_frame_profile
from repro.telemetry import Tracer, use_tracer

_WORLD = CircleWorld.random(dim=2, n_obstacles=16, extent=40.0,
                            radius_range=(1.0, 2.0), seed=9,
                            keep_corners_free=3.0)


@pytest.fixture(scope="module")
def config():
    return MissionConfig(world=_WORLD, start=np.array([1.0, 1.0]),
                         goal=np.array([38.0, 38.0]), laps=3)


@pytest.fixture(scope="module")
def tiers():
    return uav_compute_tiers()


class _ContendedPlatform(AnalyticalPlatform):
    """Prices like its parent but overrides ``estimate``, so the SoA
    gate refuses it and the engine prices it scalar."""

    def estimate(self, profile):
        return super().estimate(profile)


def _contended_platform():
    return _ContendedPlatform(PlatformConfig(
        name="contended-tier", peak_flops=2e11, scalar_flops=2e9,
        onchip_bytes=1e6, onchip_bw=4e11, offchip_bw=3e10,
        static_power_w=6.0))


def _reference_statistics(tiers, rollouts, results):
    """Per-tier statistics by the row loop: the reference for the
    column summary (grouping, percentiles, failure-reason order)."""
    by_tier = {}
    for rollout, result in zip(rollouts, results):
        by_tier.setdefault(rollout.name, []).append(result)
    statistics = []
    for name, _platform, _mass, _power in tiers:
        rows = by_tier[name]
        failures = {}
        for row in rows:
            if not row.success:
                failures[row.failure_reason] = failures.get(
                    row.failure_reason, 0) + 1
        times = np.array([row.mission_time_s for row in rows])
        energies = np.array([row.energy_j for row in rows])
        statistics.append(fleet_module.TierStatistics(
            tier=name,
            trials=len(rows),
            success_rate=sum(1 for row in rows if row.success) / len(rows),
            mission_time_p50_s=float(np.percentile(times, 50)),
            mission_time_p90_s=float(np.percentile(times, 90)),
            mission_time_p99_s=float(np.percentile(times, 99)),
            energy_p50_j=float(np.percentile(energies, 50)),
            energy_p99_j=float(np.percentile(energies, 99)),
            failure_counts=failures,
        ))
    return tuple(statistics)


def _assert_matches_rollout_path(study, **run_kwargs):
    """The study's column run equals the rollout-object path."""
    result = study.run(**run_kwargs)
    rollouts = list(study.rollouts())
    reference = run_fleet(rollouts)
    assert len(result.fleet.results) == len(reference.results)
    for name in fleet_module._RESULT_COLUMNS:
        np.testing.assert_array_equal(
            result.fleet.results.columns[name],
            reference.results.columns[name], err_msg=name)
    assert repr(list(result.fleet.results)) == \
        repr(list(reference.results))
    assert result.batch_priced == reference.batch_priced
    assert result.scalar_fallback == reference.scalar_fallback
    assert result.fleet.alloc_bytes == reference.alloc_bytes
    assert repr(result.statistics) == repr(_reference_statistics(
        study.tiers, rollouts, list(reference.results)))
    return result


class TestColumnStudyEqualsRolloutPath:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeds(self, config, tiers, seed):
        _assert_matches_rollout_path(
            FleetStudy(config=config, tiers=tiers, trials=24, seed=seed))

    def test_zero_widths(self, config, tiers):
        pinned = FleetPerturbation(battery_capacity=0.0, payload_mass=0.0,
                                   sensor_rate=0.0, workload_scale=0.0)
        _assert_matches_rollout_path(FleetStudy(
            config=config, tiers=tiers, trials=5, seed=0,
            perturbation=pinned))

    def test_non_soa_priceable_tiers(self, config, tiers):
        ladder = [*tiers[:2],
                  ("contended", _contended_platform(), 0.2, 8.0),
                  *tiers[2:], ("fpga", midrange_fpga(), 0.4, 15.0)]
        result = _assert_matches_rollout_path(
            FleetStudy(config=config, tiers=ladder, trials=6, seed=4))
        assert result.scalar_fallback == 2 * 6
        assert result.batch_priced == len(tiers) * 6

    # Both paths compute inf - inf on purpose here.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_workload_yields_nan_rows(self, config, tiers):
        heavy = dataclasses.replace(
            config, frame_profile=dataclasses.replace(
                default_frame_profile(), flops=math.inf))
        study = FleetStudy(config=heavy, tiers=tiers, trials=4, seed=1)
        result = _assert_matches_rollout_path(study)
        assert np.isnan(result.fleet.results.columns["safe_speed"]).any()

    @pytest.mark.parametrize("chunk_size", [1, 7, 10_000])
    def test_chunked(self, config, tiers, chunk_size):
        study = FleetStudy(config=config, tiers=tiers, trials=9, seed=5)
        chunked = _assert_matches_rollout_path(study,
                                               chunk_size=chunk_size)
        assert chunked.fleet.results == study.run().fleet.results

    @pytest.mark.parametrize("seed, first", [(3, "battery"),
                                             (6, "timeout")])
    def test_failure_reasons_in_first_occurrence_order(self, config,
                                                       tiers, seed, first):
        # Long enough that the slowest tier's trials fail both ways.
        patrol = dataclasses.replace(config, laps=40, max_duration_s=1300.0)
        result = _assert_matches_rollout_path(
            FleetStudy(config=patrol, tiers=tiers, trials=12, seed=seed))
        reasons = list(result.statistics[0].failure_counts)
        assert sorted(reasons) == ["battery", "timeout"]
        assert reasons[0] == first

    def test_duplicate_tier_names_pool(self, config, tiers):
        ladder = [tiers[0], (tiers[0][0], *tiers[3][1:]), tiers[1]]
        result = _assert_matches_rollout_path(
            FleetStudy(config=config, tiers=ladder, trials=5, seed=2))
        assert result.statistics[0].trials == 10


class TestViews:
    @pytest.fixture(scope="class")
    def study(self, config, tiers):
        return FleetStudy(config=config, tiers=tiers, trials=4, seed=3)

    def test_results_view_matches_tuple(self, study):
        results = study.run().fleet.results
        rows = tuple(results)
        assert len(results) == len(rows) == 4 * len(study.tiers)
        assert results[-1] == rows[-1]
        assert results[3] == rows[3]
        assert results[2:9:3] == rows[2:9:3]
        assert results == rows
        assert results == study.run().fleet.results
        assert results != rows[:-1]
        with pytest.raises(IndexError):
            results[len(rows)]

    def test_length_builds_no_rows(self, study, monkeypatch):
        def refuse(columns):
            raise AssertionError("a row was built")

        result = study.run()
        monkeypatch.setattr(fleet_module, "_result_rows", refuse)
        assert len(result.fleet.results) == 4 * len(study.tiers)
        assert len(result.fleet) == 4 * len(study.tiers)
        assert result.fleet.alloc_bytes_per_rollout > 0

    def test_rollout_view_shares_trial_configs(self, study):
        rollouts = study.rollouts()
        width = len(study.tiers)
        for trial in range(4):
            block = rollouts[trial * width:(trial + 1) * width]
            assert all(r.config is block[0].config for r in block)
            assert rollouts[trial * width].config is block[0].config
        assert rollouts[0].config is not rollouts[width].config
        assert rollouts[-1] == list(rollouts)[-1]
        with pytest.raises(IndexError):
            rollouts[-len(rollouts) - 1]

    def test_rollout_view_prefix(self, study):
        prefix = study.rollouts()[:7]
        assert len(prefix) == 7
        assert list(prefix) == list(study.rollouts())[:7]
        assert run_fleet(prefix).results == \
            study.run().fleet.results[:7]

    def test_study_reaches_module_run_fleet(self, study, monkeypatch):
        calls = []

        def counted(rollouts, **kwargs):
            calls.append(len(rollouts))
            return run_fleet(rollouts, **kwargs)

        monkeypatch.setattr(fleet_module, "run_fleet", counted)
        tracer = Tracer()
        with use_tracer(tracer):
            study.run()
        assert calls == [4 * len(study.tiers)]
        phases = {span.name: span.duration_s for span in tracer.spans}
        for phase in ("plan", "gather", "price", "solve", "emit"):
            assert f"fleet.{phase}" in phases
        assert phases["fleet.plan"] > 0


class TestArenaReuse:
    def test_rows_survive_a_second_call(self, config, tiers):
        arena = BatchArena()
        first = run_fleet(tier_rollouts(config, tiers), arena=arena)
        before = list(first.results)
        columns = {name: column.copy()
                   for name, column in first.results.columns.items()}
        study = FleetStudy(config=config, tiers=tiers, trials=3, seed=8)
        second = run_fleet(study.rollouts(), arena=arena)
        assert len(second) > len(first)
        assert list(first.results) == before
        for name, column in columns.items():
            np.testing.assert_array_equal(first.results.columns[name],
                                          column)

    def test_study_rows_survive_a_second_call(self, config, tiers):
        arena = BatchArena()
        studies = [FleetStudy(config=config, tiers=tiers, trials=3,
                              seed=seed) for seed in (1, 2)]
        first = run_fleet(studies[0].rollouts(), arena=arena)
        before = list(first.results)
        run_fleet(studies[1].rollouts(), arena=arena)
        assert list(first.results) == before
        assert first.results == run_fleet(studies[0].rollouts()).results


def _replace_path(config, tiers, factors):
    """The perturbed population built with one ``replace`` per field,
    trial by trial — the reference for the builder's validation."""
    for cap, mass, rate, scale in factors:
        perturbed = dataclasses.replace(
            config,
            battery=dataclasses.replace(
                config.battery,
                capacity_wh=config.battery.capacity_wh * cap),
            sensor_rate_hz=config.sensor_rate_hz * rate,
            frame_profile=config.frame_profile.scaled(scale))
        for name, platform, module_mass, power in tiers:
            fleet_module.FleetRollout(
                name=name, config=perturbed, platform=platform,
                compute_mass_kg=module_mass * mass, compute_power_w=power)


def _raised(build):
    try:
        build()
    except Exception as error:  # the class is what is compared
        return type(error)
    return None


class TestBuilderValidation:
    @pytest.mark.parametrize("rows, expected", [
        ([[1.0, 1.0, 1.0, -0.5]], ProfileError),
        ([[1.0, 1.0, 0.0, 1.0]], ConfigurationError),
        ([[1.0, 1.0, 1.0, math.nan]], ProfileError),
        ([[1.0, 1.0, math.nan, 1.0]], None),
        ([[0.0, 1.0, 1.0, 1.0]], ConfigurationError),
        ([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0],
          [1.0, 1.0, 1.0, -1.0]], ConfigurationError),
        ([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, -1.0],
          [1.0, 1.0, -1.0, 1.0]], ProfileError),
        ([[1.1, 0.9, 1.05, 0.8], [0.9, 1.1, 0.95, 1.2]], None),
    ])
    def test_raises_where_the_replace_path_raises(self, config, tiers,
                                                  rows, expected):
        factors = np.array(rows)
        assert _raised(lambda: _replace_path(config, tiers, factors)) \
            is expected
        assert _raised(lambda: _study_columns(config, tiers, factors)) \
            is expected
        assert _raised(lambda: [_perturbed_population(config, tiers, row)
                                for row in factors]) is expected

    @pytest.mark.parametrize("module_mass, rows, bad", [
        # frame + battery + module * 1.0 == 0.0 exactly
        (None, [[1.0, 1.0, 1.0, 1.0]], 0),
        (-5.0, [[1.0, 1.0, 1.0, 1.0]], 0),
        # only trial 1's payload factor drives the ballast tier <= 0
        (-2.0, [[1.0, 0.1, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]], 1),
    ], ids=["zero", "negative", "second-trial"])
    def test_nonpositive_total_mass_raises_the_scalar_error(
            self, config, tiers, module_mass, rows, bad):
        if module_mass is None:
            module_mass = -(config.uav.frame_mass_kg
                            + config.battery.mass_kg)
        ladder = (*tiers[:2], ("ballast", tiers[0][1], module_mass, 1.0),
                  *tiers[2:])
        factors = np.array(rows)
        mass = (config.uav.frame_mass_kg + config.battery.mass_kg
                + module_mass * factors[bad, 1])
        with pytest.raises(ConfigurationError) as scalar:
            config.uav.hover_power_w(mass)
        view = fleet_module._StudyRollouts(config, ladder, factors)
        for gather in (lambda: _study_columns(config, ladder, factors),
                       lambda: run_fleet(view),
                       lambda: run_fleet(list(view))):
            with pytest.raises(ConfigurationError) as raised:
                gather()
            assert str(raised.value) == str(scalar.value)

    # A NaN payload factor flies NaN mass and power on both paths.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_mass_row_flies_nan_on_both_gathers(self, config, tiers):
        factors = np.array([[1.0, 1.0, 1.0, 1.0],
                            [1.0, math.nan, 1.0, 1.0]])
        view = fleet_module._StudyRollouts(config, tuple(tiers), factors)
        columns = run_fleet(view).results.columns
        reference = run_fleet(list(view)).results.columns
        for name in fleet_module._RESULT_COLUMNS:
            np.testing.assert_array_equal(columns[name], reference[name],
                                          err_msg=name)
        width = len(tiers)
        assert np.isnan(columns["hover_power"][width:]).all()
        assert not np.isnan(columns["hover_power"][:width]).any()

    def test_mixed_airframes_keep_their_own_hover_power(self, config,
                                                         tiers):
        twin = dataclasses.replace(config,
                                   uav=dataclasses.replace(config.uav))
        heavy = dataclasses.replace(config, uav=dataclasses.replace(
            config.uav, rotor_disk_area_m2=0.05, avionics_power_w=7.0))
        rollouts = [fleet_module.FleetRollout(
            name=name, config=scenario, platform=platform,
            compute_mass_kg=mass, compute_power_w=power)
            for scenario, (name, platform, mass, power)
            in zip((config, twin, heavy, heavy, config), tiers)]
        columns = run_fleet(rollouts).results.columns
        assert columns["hover_power"].tolist() == [
            r.config.uav.hover_power_w(r.config.uav.frame_mass_kg
                                       + r.config.battery.mass_kg
                                       + r.compute_mass_kg)
            for r in rollouts]

    def test_columns_match_rollout_gather(self, config, tiers):
        factors = FleetStudy(config=config, tiers=tiers, trials=3,
                             seed=0).factors()
        columns = _study_columns(config, tiers, factors)
        rollouts = [rollout for row in factors
                    for rollout in _perturbed_population(config, tiers,
                                                         row)]
        assert columns["total_mass"].tolist() == [
            r.config.uav.frame_mass_kg + r.config.battery.mass_kg
            + r.compute_mass_kg for r in rollouts]
        assert columns["budget"].tolist() == [
            r.config.battery.usable_energy_j for r in rollouts]
        assert columns["period"].tolist() == [
            1.0 / r.config.sensor_rate_hz for r in rollouts]


class TestSummaryCost:
    @pytest.mark.parametrize("ladder", ["distinct", "pooled"])
    def test_two_percentile_passes_per_tier_name(self, config, tiers,
                                                 ladder, monkeypatch):
        if ladder == "pooled":
            tiers = [tiers[0], (tiers[0][0], *tiers[3][1:]), tiers[1]]
        study = FleetStudy(config=config, tiers=tiers, trials=5, seed=2)
        calls = []
        percentile = np.percentile

        def counted(*args, **kwargs):
            calls.append(None)
            return percentile(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "percentile", counted)
            study.run()
        names = {name for name, _platform, _mass, _power in tiers}
        assert len(calls) <= 2 * len(names)
        _assert_matches_rollout_path(study)
