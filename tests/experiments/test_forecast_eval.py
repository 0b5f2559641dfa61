"""Tests for in-vivo forecast calibration."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.forecast_eval import (
    CalibrationReport,
    ForecastSample,
    evaluate_forecasts,
)
from repro.experiments.runner import run_experiment
from repro.regression.online import OnlineCorrectedEstimator

#: ``(n, missed-deadline ratio, sha256 over the samples)`` of
#: :func:`evaluate_forecasts` on the default baseline (triangular,
#: 15 units, session-fitted estimator), keyed by ``online``.  The
#: samples must not move when the run assembly behind them is
#: refactored.
PINNED_SAMPLES = {
    False: (
        9,
        0.0,
        "e70d73b51f4af09561998729308d4eb0a60e60121ef78fbd9b745976090526c2",
    ),
    True: (
        9,
        0.0,
        "5d1e0ff5030f76a082d008b83cfb08e1e02b6a53b0d1b341d7fec36e062460fc",
    ),
}


def _samples_digest(report: CalibrationReport) -> str:
    key = tuple(
        (s.time, s.subtask_index, s.replica_count, s.forecast_s, s.observed_s)
        for s in report.samples
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()


def _default_config(**baseline_overrides) -> ExperimentConfig:
    return ExperimentConfig(
        policy="predictive",
        pattern="triangular",
        max_workload_units=15.0,
        baseline=BaselineConfig(**baseline_overrides),
    )


class TestForecastSample:
    def test_signed_error(self):
        sample = ForecastSample(
            time=1.0, subtask_index=3, replica_count=2,
            forecast_s=0.3, observed_s=0.2,
        )
        assert sample.error_s == pytest.approx(0.1)
        assert sample.absolute_percentage_error == pytest.approx(0.5)


class TestCalibrationReport:
    def make(self, errors):
        samples = tuple(
            ForecastSample(
                time=float(i), subtask_index=3, replica_count=2,
                forecast_s=0.2 + e, observed_s=0.2,
            )
            for i, e in enumerate(errors)
        )
        return CalibrationReport(samples=samples)

    def test_empty_report(self):
        report = CalibrationReport(samples=())
        assert report.n == 0
        assert report.mape == 0.0
        assert report.pessimism_rate == 0.0

    def test_statistics(self):
        report = self.make([0.1, -0.1, 0.0, 0.2])
        assert report.n == 4
        assert report.mean_error_s == pytest.approx(0.05)
        assert report.pessimism_rate == pytest.approx(0.75)
        assert report.mape == pytest.approx((0.5 + 0.5 + 0.0 + 1.0) / 4)


class TestEvaluateForecasts:
    @pytest.fixture(scope="class")
    def report(self, fitted_estimator):
        config = ExperimentConfig(
            policy="predictive",
            pattern="triangular",
            max_workload_units=15.0,
            baseline=BaselineConfig(n_periods=25, noise_sigma=0.0, seed=2),
        )
        return evaluate_forecasts(config, estimator=fitted_estimator)

    def test_decisions_are_audited(self, report):
        assert report.n > 0
        for sample in report.samples:
            assert sample.subtask_index in (3, 5)
            assert sample.forecast_s > 0.0
            assert sample.observed_s > 0.0

    def test_forecasts_are_usably_accurate(self, report):
        """The regression forecasts land within the right ballpark —
        the property the whole predictive approach rests on."""
        assert report.mape < 1.0  # within 2x on average

    def test_requires_predictive_policy(self, fitted_estimator):
        config = ExperimentConfig(
            policy="nonpredictive",
            pattern="triangular",
            max_workload_units=10.0,
            baseline=BaselineConfig(n_periods=10),
        )
        with pytest.raises(ConfigurationError):
            evaluate_forecasts(config, estimator=fitted_estimator)


class TestPinnedSamples:
    @pytest.mark.parametrize("online", [False, True])
    def test_default_baseline_samples_are_pinned(self, online, fitted_estimator):
        report = evaluate_forecasts(
            _default_config(), estimator=fitted_estimator, online=online
        )
        assert (
            report.n,
            report.missed_deadline_ratio,
            _samples_digest(report),
        ) == PINNED_SAMPLES[online]

    def test_static_audit_is_the_run_experiment_report(self, fitted_estimator):
        config = _default_config()
        assert evaluate_forecasts(
            config, estimator=fitted_estimator
        ) == run_experiment(config, estimator=fitted_estimator).forecasts


class TestFollowsTheRunner:
    """The audit runs exactly the experiment its config describes."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"slack_fraction": 0.4},
            {"monitor_window": 1},
            {"network_mode": "switched"},
        ],
        ids=["slack_fraction", "monitor_window", "network_mode"],
    )
    def test_audit_equals_run_experiment_report(
        self, overrides, fitted_estimator
    ):
        config = _default_config(**overrides)
        assert evaluate_forecasts(
            config, estimator=fitted_estimator
        ) == run_experiment(config, estimator=fitted_estimator).forecasts

    def test_online_audit_honours_the_shutdown_strategy(self, fitted_estimator):
        config = _default_config(shutdown_strategy="forecast_aware")
        refined = OnlineCorrectedEstimator(base=fitted_estimator)
        assert evaluate_forecasts(
            config, estimator=fitted_estimator, online=True
        ) == run_experiment(config, estimator=refined).forecasts

    def test_missed_ratio_is_the_metrics_definition(self, fitted_estimator):
        result = run_experiment(
            ExperimentConfig(
                policy="predictive",
                pattern="triangular",
                max_workload_units=25.0,
                baseline=BaselineConfig(n_periods=30, seed=3),
            ),
            estimator=fitted_estimator,
        )
        assert result.metrics.periods_missed > 0
        assert (
            result.forecasts.missed_deadline_ratio
            == result.metrics.missed_deadline_ratio
        )
