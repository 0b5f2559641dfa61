"""Tests for the two-level (memory + disk) estimator cache."""

from __future__ import annotations

import pytest

from repro.bench.app import aaw_task
from repro.errors import ConfigurationError
from repro.experiments import estimator_cache
from repro.experiments.config import BaselineConfig
from repro.regression.buffer_model import BufferDelayModel
from repro.regression.comm import CommunicationDelayModel
from repro.regression.estimator import TimingEstimator
from repro.regression.latency_model import ExecutionLatencyModel
from repro.regression.transmission import TransmissionModel


def _stub_estimator(baseline: BaselineConfig) -> TimingEstimator:
    """A cheap handcrafted estimator (no profiling campaign)."""
    task = aaw_task(
        period=baseline.period,
        deadline=baseline.deadline,
        noise_sigma=baseline.noise_sigma,
    )
    models = {
        subtask.index: ExecutionLatencyModel(
            subtask_name=subtask.name,
            a=(0.1, 0.05, 0.2 + subtask.index),
            b=(1.0, 0.5, 2.0),
        )
        for subtask in task.subtasks
    }
    comm = CommunicationDelayModel(
        buffer=BufferDelayModel(k_ms_per_track=0.01),
        transmission=TransmissionModel(
            bandwidth_bps=baseline.bandwidth_bps,
            overhead_bytes=baseline.message_overhead_bytes,
        ),
    )
    return TimingEstimator(task=task, latency_models=models, comm_model=comm)


@pytest.fixture()
def isolated_cache(monkeypatch):
    """Snapshot/restore the process-wide memory cache and stats."""
    saved = dict(estimator_cache._MEMORY_CACHE)
    estimator_cache._MEMORY_CACHE.clear()
    estimator_cache.STATS.reset()
    yield
    estimator_cache._MEMORY_CACHE.clear()
    estimator_cache._MEMORY_CACHE.update(saved)
    estimator_cache.STATS.reset()


@pytest.fixture()
def counted_builds(monkeypatch):
    """Replace the profiling campaign with a counted stub fit."""
    calls = {"n": 0}

    def fake_build(task, **kwargs):
        calls["n"] += 1
        return _stub_estimator(BaselineConfig())

    monkeypatch.setattr(estimator_cache, "build_estimator", fake_build)
    return calls


class TestGetEstimator:
    def test_memory_hit_returns_same_object(self, isolated_cache, counted_builds):
        baseline = BaselineConfig(seed=301)
        a = estimator_cache.get_estimator(baseline)
        b = estimator_cache.get_estimator(baseline)
        assert a is b
        assert counted_builds["n"] == 1
        assert estimator_cache.STATS.memory_hits == 1
        assert estimator_cache.STATS.fits == 1

    def test_disk_hit_skips_refit(self, isolated_cache, counted_builds, tmp_path):
        """The second load (fresh memory cache) must not re-profile."""
        baseline = BaselineConfig(seed=302)
        first = estimator_cache.get_estimator(baseline, cache_dir=tmp_path)
        assert counted_builds["n"] == 1
        assert estimator_cache.cache_path(
            tmp_path, estimator_cache.cache_key(baseline)
        ).exists()

        estimator_cache.clear_memory_cache()
        second = estimator_cache.get_estimator(baseline, cache_dir=tmp_path)
        assert counted_builds["n"] == 1, "disk hit must not refit"
        assert estimator_cache.STATS.disk_hits == 1
        assert second is not first
        for index, model in first.latency_models.items():
            assert second.latency_models[index].a == pytest.approx(model.a)
            assert second.latency_models[index].b == pytest.approx(model.b)

    def test_distinct_baselines_get_distinct_fits(
        self, isolated_cache, counted_builds
    ):
        estimator_cache.get_estimator(BaselineConfig(seed=303))
        estimator_cache.get_estimator(BaselineConfig(seed=304))
        assert counted_builds["n"] == 2

    def test_repetitions_part_of_key(self, isolated_cache, counted_builds):
        baseline = BaselineConfig(seed=305)
        estimator_cache.get_estimator(baseline, repetitions=1)
        estimator_cache.get_estimator(baseline, repetitions=2)
        assert counted_builds["n"] == 2

    def test_unusable_cache_dir_rejected_before_the_fit(
        self, isolated_cache, counted_builds, tmp_path
    ):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        with pytest.raises(ConfigurationError, match="not a usable directory"):
            estimator_cache.get_estimator(
                BaselineConfig(seed=306), cache_dir=not_a_dir
            )
        assert counted_builds["n"] == 0
