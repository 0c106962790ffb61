"""Fleet memory architecture: chunked streaming.

Complements ``tests/system/test_fleet.py`` (scalar equivalence,
allocation accounting): here the contract is that ``chunk_size``
changes *where bytes live*, never what any result is — chunked ==
unchunked — plus the telemetry that path publishes and the errors
misconfigured runs raise (a study runs in-process: ``jobs`` must be 1).
"""

import numpy as np
import pytest

from repro.engine.arena import BatchArena
from repro.errors import ConfigurationError
from repro.hw.catalog import uav_compute_tiers
from repro.kernels.planning import CircleWorld
from repro.system.fleet import (
    FleetStudy,
    run_fleet,
)
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
    """A study runs in-process only: ``jobs`` other than 1 is refused,
    and ``chunk_size`` leaves every observable output equal to the
    whole-population run, including windows that split trials."""

    @pytest.fixture(scope="class")
    def study(self, config):
        return FleetStudy(config=config, tiers=uav_compute_tiers(),
                          trials=4, seed=3)

    @pytest.fixture(scope="class")
    def serial(self, study):
        return study.run()

    @pytest.mark.parametrize("trials", [2, 5, 7])
    def test_chunked_equals_whole(self, config, trials):
        study = FleetStudy(config=config, tiers=uav_compute_tiers(),
                           trials=trials, seed=3)
        whole_metrics = MetricsRegistry()
        whole = study.run(jobs=1, metrics=whole_metrics)
        metrics = MetricsRegistry()
        chunked = study.run(chunk_size=3, metrics=metrics)
        assert chunked.fleet.results == whole.fleet.results
        assert chunked.statistics == whole.statistics
        assert chunked.batch_priced == whole.batch_priced
        assert chunked.scalar_fallback == whole.scalar_fallback
        assert chunked.fleet.alloc_bytes == whole.fleet.alloc_bytes
        published = metrics.snapshot()
        expected = whole_metrics.snapshot()
        for name in ("fleet.rollouts", "fleet.batch_hits"):
            assert published[name]["value"] == expected[name]["value"]

    def test_chunked_serial_study_equals_serial(self, study, serial):
        chunked = study.run(chunk_size=2)
        assert chunked.fleet.results == serial.fleet.results
        assert chunked.statistics == serial.statistics

    @pytest.mark.parametrize("jobs", [0, 2, 3])
    def test_jobs_other_than_one_rejected(self, study, jobs):
        with pytest.raises(ConfigurationError,
                           match=f"in-process.*got jobs={jobs}"):
            study.run(jobs=jobs)

    def test_invalid_chunk_size_rejected(self, study):
        with pytest.raises(ConfigurationError):
            study.run(chunk_size=-1)
