"""Integration tests for the experiment runner."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.estimator_cache import get_estimator
from repro.experiments.runner import (
    run_experiment,
    sweep_workloads,
)


@pytest.fixture(scope="module")
def fast_baseline():
    """Short runs, deterministic app, for test speed."""
    return BaselineConfig(n_periods=15, noise_sigma=0.0, seed=3)


def config(policy="predictive", pattern="triangular", units=10.0, baseline=None):
    return ExperimentConfig(
        policy=policy,
        pattern=pattern,
        max_workload_units=units,
        baseline=baseline or BaselineConfig(n_periods=15, noise_sigma=0.0, seed=3),
    )


class TestRunExperiment:
    def test_produces_metrics(self, fast_baseline, fitted_estimator):
        result = run_experiment(
            config(baseline=fast_baseline), estimator=fitted_estimator
        )
        m = result.metrics
        assert m.periods_released == 15
        assert 0.0 <= m.missed_deadline_ratio <= 1.0
        assert 0.0 <= m.avg_cpu_utilization <= 1.0
        assert 0.0 <= m.avg_network_utilization <= 1.0
        assert 2.0 <= m.avg_replicas <= 12.0

    def test_light_load_no_adaptation(self, fast_baseline, fitted_estimator):
        result = run_experiment(
            config(units=1.0, baseline=fast_baseline), estimator=fitted_estimator
        )
        assert result.metrics.missed_deadline_ratio == 0.0
        assert result.metrics.rm_actions == 0
        assert result.metrics.avg_replicas == pytest.approx(2.0)

    def test_heavy_load_adapts(self, fast_baseline, fitted_estimator):
        result = run_experiment(
            config(units=20.0, pattern="constant", baseline=fast_baseline),
            estimator=fitted_estimator,
        )
        assert result.metrics.rm_actions > 0
        assert result.metrics.avg_replicas > 2.0

    def test_final_placement_reported(self, fast_baseline, fitted_estimator):
        result = run_experiment(
            config(units=20.0, pattern="constant", baseline=fast_baseline),
            estimator=fitted_estimator,
        )
        assert set(result.final_placement) == {1, 2, 3, 4, 5}
        assert len(result.final_placement[3]) >= 1

    def test_deterministic_given_seed(self, fast_baseline, fitted_estimator):
        a = run_experiment(config(baseline=fast_baseline), estimator=fitted_estimator)
        b = run_experiment(config(baseline=fast_baseline), estimator=fitted_estimator)
        assert a.metrics == b.metrics

    def test_unknown_policy_rejected(self, fast_baseline, fitted_estimator):
        with pytest.raises(Exception):
            run_experiment(
                config(policy="alchemy", baseline=fast_baseline),
                estimator=fitted_estimator,
            )

    def test_unknown_pattern_rejected(self, fast_baseline, fitted_estimator):
        with pytest.raises(ConfigurationError):
            run_experiment(
                config(pattern="sawtooth", baseline=fast_baseline),
                estimator=fitted_estimator,
            )


class TestSweep:
    def test_sweep_runs_every_point(self, fast_baseline, fitted_estimator):
        results = sweep_workloads(
            "predictive",
            "triangular",
            units=(1.0, 10.0, 20.0),
            baseline=fast_baseline,
            estimator=fitted_estimator,
        )
        assert [r.config.max_workload_units for r in results] == [1.0, 10.0, 20.0]

    def test_combined_metric_grows_with_workload(
        self, fast_baseline, fitted_estimator
    ):
        results = sweep_workloads(
            "predictive",
            "triangular",
            units=(1.0, 20.0),
            baseline=fast_baseline,
            estimator=fitted_estimator,
        )
        assert results[1].metrics.combined > results[0].metrics.combined


class TestEstimatorCache:
    def test_in_process_cache_returns_same_object(self):
        baseline = BaselineConfig(noise_sigma=0.0, seed=99)
        # Use a tiny profiling load via repetitions=1.
        a = get_estimator(baseline, repetitions=1)
        b = get_estimator(baseline, repetitions=1)
        assert a is b

    def test_disk_cache_round_trip(self, tmp_path):
        baseline = BaselineConfig(noise_sigma=0.0, seed=98)
        a = get_estimator(baseline, cache_dir=tmp_path, repetitions=1)
        # Clear the in-process cache to force the disk path.
        from repro.experiments import estimator_cache

        estimator_cache.clear_memory_cache()
        b = get_estimator(baseline, cache_dir=tmp_path, repetitions=1)
        assert a is not b
        assert a.latency_models[3].a == pytest.approx(b.latency_models[3].a)
        assert list(tmp_path.glob("models_*.json"))
