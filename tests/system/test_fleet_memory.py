"""Fleet memory architecture: chunked streaming and sharded studies.

Complements ``tests/system/test_fleet.py`` (scalar equivalence,
allocation accounting): here the contract is that ``chunk_size`` and
``jobs`` change *where bytes live and move*, never what any result
is — chunked == unchunked, jobs=N == serial — plus the telemetry
those paths publish and the errors they raise when misconfigured.
"""

import numpy as np
import pytest

from repro.engine.arena import BatchArena
from repro.errors import ConfigurationError
from repro.hw.catalog import uav_compute_tiers
from repro.kernels.planning import CircleWorld
from repro.system import courses
from repro.system.fleet import (
    FleetStudy,
    _run_shard,
    _solve_windows,
    run_fleet,
)
from repro.system.mission import plan_course
from repro.telemetry.metrics import MetricsRegistry

_WORLD = CircleWorld.random(dim=2, n_obstacles=10, extent=25.0,
                            radius_range=(1.0, 2.0), seed=4,
                            keep_corners_free=3.0)


@pytest.fixture(scope="module")
def config():
    from repro.system.mission import MissionConfig

    return MissionConfig(world=_WORLD, start=np.array([1.0, 1.0]),
                         goal=np.array([23.0, 23.0]))


@pytest.fixture(scope="module")
def population(config):
    return FleetStudy(config=config, tiers=uav_compute_tiers(),
                      trials=5, seed=7).rollouts()


class TestChunkedRunFleet:
    def test_chunked_equals_unchunked(self, population):
        whole = run_fleet(population)
        for chunk_size in (1, 3, 7, len(population), 10_000):
            chunked = run_fleet(population, chunk_size=chunk_size)
            assert chunked.results == whole.results
            assert chunked.batch_priced == whole.batch_priced
            assert chunked.scalar_fallback == whole.scalar_fallback
            assert chunked.alloc_bytes == whole.alloc_bytes

    def test_chunked_with_shared_arena(self, population):
        arena = BatchArena()
        whole = run_fleet(population)
        chunked = run_fleet(population, arena=arena, chunk_size=4)
        assert chunked.results == whole.results
        assert arena.grows > 0

    def test_chunk_telemetry(self, population):
        metrics = MetricsRegistry()
        run_fleet(population, chunk_size=4, metrics=metrics)
        snapshot = metrics.snapshot()
        expected = -(-len(population) // 4)  # ceil division
        assert snapshot["fleet.chunks"]["value"] == expected
        assert 0 < snapshot["fleet.arena_occupancy_pct"]["value"] <= 100

    def test_no_chunk_metrics_when_unchunked(self, population):
        metrics = MetricsRegistry()
        run_fleet(population, metrics=metrics)
        assert "fleet.chunks" not in metrics.snapshot()

    def test_invalid_chunk_size(self, population):
        with pytest.raises(ConfigurationError):
            run_fleet(population, chunk_size=0)


class TestStudyJobs:
    """``jobs`` shards the trials over a process pool; every observable
    output equals the serial run's, chunked or not, including uneven
    splits and fewer trials than jobs."""

    @pytest.fixture(scope="class")
    def study(self, config):
        return FleetStudy(config=config, tiers=uav_compute_tiers(),
                          trials=4, seed=3)

    @pytest.fixture(scope="class")
    def serial(self, study):
        return study.run()

    @pytest.mark.parametrize("trials", [2, 5, 7])
    @pytest.mark.parametrize("chunk_size", [None, 3])
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_jobs_equals_serial(self, config, jobs, chunk_size, trials):
        study = FleetStudy(config=config, tiers=uav_compute_tiers(),
                           trials=trials, seed=3)
        serial_metrics = MetricsRegistry()
        serial = study.run(metrics=serial_metrics)
        metrics = MetricsRegistry()
        sharded = study.run(jobs=jobs, chunk_size=chunk_size,
                            metrics=metrics)
        assert sharded.fleet.results == serial.fleet.results
        assert sharded.statistics == serial.statistics
        assert sharded.batch_priced == serial.batch_priced
        assert sharded.scalar_fallback == serial.scalar_fallback
        published = metrics.snapshot()
        expected = serial_metrics.snapshot()
        for name in ("fleet.rollouts", "fleet.batch_hits"):
            assert published[name]["value"] == expected[name]["value"]

    def test_chunked_serial_study_equals_serial(self, study, serial):
        chunked = study.run(chunk_size=2)
        assert chunked.fleet.results == serial.fleet.results
        assert chunked.statistics == serial.statistics

    @pytest.mark.parametrize("chunk_size", [None, 3])
    def test_shard_never_plans(self, study, chunk_size, monkeypatch):
        """A shard flies the course its task carries: with planning
        disabled and an empty course store, it still returns the
        columns the parent's own solve gives."""
        factors = study.factors()
        tiers = tuple(study.tiers)
        rollouts = tuple(study.rollouts())
        course = plan_course(study.config)
        expected = _solve_windows(rollouts, chunk_size or len(rollouts),
                                  {}, BatchArena())

        def refuse(config):
            raise AssertionError("a shard worker planned a course")

        monkeypatch.setattr(courses, "_STORE", {})
        monkeypatch.setattr(courses, "plan_course", refuse)
        columns, priced, fell_back, nbytes = _run_shard(
            (study.config, tiers, factors, chunk_size, course))
        assert set(columns) == set(expected[0])
        for name, column in expected[0].items():
            np.testing.assert_array_equal(columns[name], column)
        assert (priced, fell_back, nbytes) == expected[1:]

    def test_invalid_chunk_size_rejected(self, study):
        with pytest.raises(ConfigurationError):
            study.run(chunk_size=-1)
