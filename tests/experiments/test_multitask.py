"""Tests for multi-task experiments."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.multitask import (
    WorkloadLedger,
    run_multi_task_experiment,
)
from repro.telemetry.slo import DEFAULT_SLO_RULES


#: ``dataclasses.astuple`` of every ``ExperimentMetrics`` of a 2-task
#: run on the default baseline (triangular, 10 units per task,
#: session-fitted estimator): ``(missed ratio, cpu, net, avg replicas,
#: max replicas, released, missed, aborted, rm actions)``.
PINNED_TWO_TASK_METRICS = {
    "predictive": {
        "aaw1": (0.0, 0.13311838093292055, 0.1328354666666681,
                 3.1666666666666665, 12, 60, 0, 0, 17),
        "aaw2": (0.0, 0.13311838093292055, 0.1328354666666681,
                 2.933333333333333, 12, 60, 0, 0, 10),
        "aggregate": (0.0, 0.13311838093292055, 0.1328354666666681,
                      6.1, 24, 120, 0, 0, 27),
    },
    "nonpredictive": {
        "aaw1": (0.0, 0.11485490953413637, 0.15015119999999965,
                 5.116666666666666, 12, 60, 0, 0, 36),
        "aaw2": (0.0, 0.11485490953413637, 0.15015119999999965,
                 4.916666666666667, 12, 60, 0, 0, 32),
        "aggregate": (0.0, 0.11485490953413637, 0.15015119999999965,
                      10.033333333333333, 24, 120, 0, 0, 68),
    },
}


@pytest.fixture(scope="module")
def fast_baseline():
    return BaselineConfig(n_periods=12, noise_sigma=0.0, seed=4)


def config(baseline, units=10.0, policy="predictive"):
    return ExperimentConfig(
        policy=policy,
        pattern="triangular",
        max_workload_units=units,
        baseline=baseline,
    )


class TestWorkloadLedger:
    def test_total_sums_tasks(self):
        ledger = WorkloadLedger()
        ledger.publish("a", 100.0)
        ledger.publish("b", 250.0)
        assert ledger.total() == 350.0

    def test_publish_replaces(self):
        ledger = WorkloadLedger()
        ledger.publish("a", 100.0)
        ledger.publish("a", 50.0)
        assert ledger.total() == 50.0

    def test_of_unknown_task_is_zero(self):
        assert WorkloadLedger().of("ghost") == 0.0


class TestMultiTaskExperiment:
    def test_single_task_matches_structure(self, fast_baseline, fitted_estimator):
        result = run_multi_task_experiment(
            config(fast_baseline), n_tasks=1, estimator=fitted_estimator
        )
        assert result.n_tasks == 1
        assert set(result.per_task_metrics) == {"aaw1"}
        assert result.aggregate.periods_released == 12

    def test_two_tasks_share_the_machine(self, fast_baseline, fitted_estimator):
        result = run_multi_task_experiment(
            config(fast_baseline), n_tasks=2, estimator=fitted_estimator
        )
        assert set(result.per_task_metrics) == {"aaw1", "aaw2"}
        assert result.aggregate.periods_released == 24
        # Aggregate replica ceiling scales with task count.
        assert result.aggregate.max_replicas == 6 * 2 * 2

    def test_contention_raises_utilization(self, fast_baseline, fitted_estimator):
        one = run_multi_task_experiment(
            config(fast_baseline), n_tasks=1, estimator=fitted_estimator
        )
        two = run_multi_task_experiment(
            config(fast_baseline), n_tasks=2, estimator=fitted_estimator
        )
        assert two.aggregate.avg_cpu_utilization > one.aggregate.avg_cpu_utilization
        assert (
            two.aggregate.avg_network_utilization
            > one.aggregate.avg_network_utilization
        )

    def test_all_tasks_adapt_under_load(self, fast_baseline, fitted_estimator):
        result = run_multi_task_experiment(
            config(fast_baseline, units=15.0), n_tasks=2, estimator=fitted_estimator
        )
        for metrics in result.per_task_metrics.values():
            assert metrics.rm_actions > 0

    def test_invalid_task_count_rejected(self, fast_baseline, fitted_estimator):
        with pytest.raises(ConfigurationError):
            run_multi_task_experiment(
                config(fast_baseline), n_tasks=0, estimator=fitted_estimator
            )

    def test_deterministic(self, fast_baseline, fitted_estimator):
        a = run_multi_task_experiment(
            config(fast_baseline), n_tasks=2, estimator=fitted_estimator
        )
        b = run_multi_task_experiment(
            config(fast_baseline), n_tasks=2, estimator=fitted_estimator
        )
        assert a.aggregate == b.aggregate


class TestPinnedMetrics:
    @pytest.mark.parametrize("policy", ["predictive", "nonpredictive"])
    def test_two_task_metrics_are_pinned(self, policy, fitted_estimator):
        result = run_multi_task_experiment(
            config(BaselineConfig(), policy=policy),
            n_tasks=2,
            estimator=fitted_estimator,
        )
        observed = {
            name: dataclasses.astuple(metrics)
            for name, metrics in result.per_task_metrics.items()
        }
        observed["aggregate"] = dataclasses.astuple(result.aggregate)
        assert observed == PINNED_TWO_TASK_METRICS[policy]


class TestHonoursTheConfig:
    """Every task's manager is the one a single run would build."""

    def run(self, fitted_estimator, units=10.0, **overrides):
        config = ExperimentConfig(
            policy="predictive",
            pattern="triangular",
            max_workload_units=units,
        ).with_overrides(**overrides)
        return run_multi_task_experiment(
            config, n_tasks=2, estimator=fitted_estimator
        )

    def test_forecast_aware_shutdown_differs_from_lifo(self, fitted_estimator):
        lifo = self.run(fitted_estimator)
        aware = self.run(
            fitted_estimator,
            baseline=BaselineConfig(shutdown_strategy="forecast_aware"),
        )
        assert aware.aggregate != lifo.aggregate

    def test_hardening_is_honoured(self, fitted_estimator):
        plain = self.run(fitted_estimator, units=30.0)
        hardened = self.run(fitted_estimator, units=30.0, hardened=True)
        assert hardened.aggregate != plain.aggregate

    @pytest.mark.parametrize(
        "field,value",
        [
            ("chaos_scenario", "crashes"),
            ("slo", DEFAULT_SLO_RULES),
            ("checkpoint", 4.0),
            ("failover", True),
        ],
    )
    def test_single_run_instrumentation_is_rejected(
        self, field, value, fitted_estimator
    ):
        with pytest.raises(ConfigurationError, match=field):
            self.run(fitted_estimator, **{field: value})
