"""Runner plumbing for the shutdown-strategy configuration."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.runner import run_experiment


def test_invalid_shutdown_strategy_rejected():
    with pytest.raises(ConfigurationError):
        BaselineConfig(shutdown_strategy="random")


@pytest.mark.parametrize("strategy", ["lifo", "forecast_aware"])
def test_both_strategies_run(strategy, fitted_estimator):
    config = ExperimentConfig(
        policy="predictive",
        pattern="triangular",
        max_workload_units=10.0,
        baseline=BaselineConfig(
            n_periods=12, noise_sigma=0.0, seed=2, shutdown_strategy=strategy
        ),
    )
    result = run_experiment(config, estimator=fitted_estimator)
    assert result.metrics.periods_released == 12


def test_forecast_aware_never_shuts_down_into_infeasibility(fitted_estimator):
    """With the forecast-aware strategy, the periods *after* a shutdown
    never miss because of that shutdown (the veto guarantees the model
    deems the smaller set sufficient)."""
    config = ExperimentConfig(
        policy="predictive",
        pattern="triangular",
        max_workload_units=15.0,
        baseline=BaselineConfig(
            n_periods=25, noise_sigma=0.0, seed=2,
            shutdown_strategy="forecast_aware",
        ),
    )
    result = run_experiment(config, estimator=fitted_estimator)
    assert result.metrics.missed_deadline_ratio <= 0.25


def test_hardened_forecast_aware_survives_corrupt_readings(fitted_estimator):
    """The hardened loop's reading guard covers the k-1 forecast too.

    Under ``corrupt_readings`` a survivor's reading can leave [0, 1];
    the forecast-aware strategy must sanitize it like Figure 5 does
    instead of feeding it to eq. 3 (which raises ``RegressionError``).
    """
    config = ExperimentConfig(
        policy="predictive",
        pattern="triangular",
        max_workload_units=15.0,
        baseline=BaselineConfig(
            n_periods=30, seed=5, shutdown_strategy="forecast_aware"
        ),
        chaos_scenario="corrupt_readings",
        hardened=True,
    )
    result = run_experiment(config, estimator=fitted_estimator)
    assert result.metrics.periods_released == 30
