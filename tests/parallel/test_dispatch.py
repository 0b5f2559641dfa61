"""``run_configs_parallel``: the parent fits once and every job carries it.

The pool itself is covered by ``test_pool.py``; here ``map_jobs`` is
replaced by a recorder so each test sees exactly the :class:`JobSpec`
list the parent built, without running any experiment.
"""

from __future__ import annotations

import pytest

import repro.parallel.dispatch as dispatch
from repro.errors import ConfigurationError
from repro.experiments import estimator_cache
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.parallel import run_configs_parallel


def _config(seed: int, units: float = 10.0) -> ExperimentConfig:
    return ExperimentConfig(
        policy="predictive",
        pattern="triangular",
        max_workload_units=units,
        baseline=BaselineConfig(n_periods=5, seed=seed),
    )


@pytest.fixture()
def recorded(monkeypatch):
    """Capture what would be dispatched instead of running it."""
    seen: dict = {}

    def fake_map_jobs(specs, n_jobs, worker, on_result=None, retries=0):
        seen.update(specs=list(specs), n_jobs=n_jobs, retries=retries)
        return [f"ran:{spec.tag}" for spec in specs]

    monkeypatch.setattr(dispatch, "map_jobs", fake_map_jobs)
    return seen


@pytest.fixture()
def isolated_cache():
    """Snapshot/restore the process-wide estimator memo."""
    saved = dict(estimator_cache._MEMORY_CACHE)
    estimator_cache._MEMORY_CACHE.clear()
    yield
    estimator_cache._MEMORY_CACHE.clear()
    estimator_cache._MEMORY_CACHE.update(saved)


@pytest.fixture()
def counted_fits(monkeypatch, fitted_estimator):
    """Replace the profiling campaign with a counted, already-fitted stub."""
    calls = {"n": 0}

    def fake_build(task, **kwargs):
        calls["n"] += 1
        return fitted_estimator

    monkeypatch.setattr(estimator_cache, "build_estimator", fake_build)
    return calls


class TestRunConfigsParallel:
    def test_fits_once_per_distinct_baseline(
        self, recorded, isolated_cache, monkeypatch
    ):
        fits: list[int] = []

        def fake_get_estimator(baseline, cache_dir=None, repetitions=2):
            fits.append(baseline.seed)
            return object()

        monkeypatch.setattr(estimator_cache, "get_estimator", fake_get_estimator)
        configs = [_config(1, 5.0), _config(2, 5.0), _config(1, 15.0), _config(2)]
        run_configs_parallel(configs, n_jobs=2)
        assert fits == [1, 2]
        specs = recorded["specs"]
        assert specs[0].estimator is specs[2].estimator
        assert specs[1].estimator is specs[3].estimator
        assert specs[0].estimator is not specs[1].estimator

    def test_explicit_estimator_shared_without_fitting(
        self, recorded, monkeypatch, fitted_estimator
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("an explicit estimator must not be refitted")

        monkeypatch.setattr(estimator_cache, "get_estimator", refuse)
        run_configs_parallel(
            [_config(1), _config(2)], n_jobs=1, estimator=fitted_estimator
        )
        assert all(
            spec.estimator is fitted_estimator for spec in recorded["specs"]
        )

    def test_offsets_and_tags_travel_with_each_spec_in_order(
        self, recorded, fitted_estimator
    ):
        configs = [_config(1, 5.0), _config(1, 15.0), _config(1, 25.0)]
        out = run_configs_parallel(
            configs,
            n_jobs=3,
            estimator=fitted_estimator,
            seed_offsets=[2, 0, 1],
            tags=["a", "b", "c"],
            retries=1,
        )
        specs = recorded["specs"]
        assert [s.config for s in specs] == configs
        assert [s.seed_offset for s in specs] == [2, 0, 1]
        assert [s.tag for s in specs] == ["a", "b", "c"]
        assert (recorded["n_jobs"], recorded["retries"]) == (3, 1)
        assert out == ["ran:a", "ran:b", "ran:c"]

    def test_mismatched_lengths_rejected(self, recorded, fitted_estimator):
        configs = [_config(1), _config(2)]
        with pytest.raises(ConfigurationError, match="seed offsets"):
            run_configs_parallel(
                configs, n_jobs=1, estimator=fitted_estimator, seed_offsets=[0]
            )
        with pytest.raises(ConfigurationError, match="tags"):
            run_configs_parallel(
                configs, n_jobs=1, estimator=fitted_estimator, tags=["only"]
            )
        assert "specs" not in recorded

    def test_cache_dir_persists_the_parent_fit(
        self, recorded, isolated_cache, counted_fits, tmp_path
    ):
        config = _config(306)
        run_configs_parallel([config, config], n_jobs=2, cache_dir=tmp_path)
        assert counted_fits["n"] == 1
        key = estimator_cache.cache_key(config.baseline, 2)
        assert estimator_cache.cache_path(tmp_path, key).exists()

        # A later invocation (empty memo) loads the file instead of fitting.
        estimator_cache.clear_memory_cache()
        estimator_cache.get_estimator(config.baseline, cache_dir=tmp_path)
        assert counted_fits["n"] == 1

    def test_shards_argument_is_gone(self, recorded, fitted_estimator):
        with pytest.raises(TypeError, match="shards"):
            run_configs_parallel(  # type: ignore[call-arg]
                [_config(1)], n_jobs=1, estimator=fitted_estimator, shards=2
            )
