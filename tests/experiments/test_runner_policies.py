"""Runner integration with registry-resolved (extension) policies."""

from __future__ import annotations

import pytest

from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.runner import run_experiment


@pytest.fixture(scope="module")
def fast_baseline():
    return BaselineConfig(n_periods=10, noise_sigma=0.0, seed=12)


@pytest.mark.parametrize("policy", ["noadapt", "staticmax", "hybrid"])
def test_extension_policies_run_via_config(policy, fast_baseline, fitted_estimator):
    config = ExperimentConfig(
        policy=policy,
        pattern="triangular",
        max_workload_units=10.0,
        baseline=fast_baseline,
    )
    result = run_experiment(config, estimator=fitted_estimator)
    assert result.metrics.periods_released == 10


def test_noadapt_never_replicates(fast_baseline, fitted_estimator):
    config = ExperimentConfig(
        policy="noadapt",
        pattern="constant",
        max_workload_units=20.0,
        baseline=fast_baseline,
    )
    result = run_experiment(config, estimator=fitted_estimator)
    assert result.metrics.avg_replicas == pytest.approx(2.0)
    assert result.metrics.missed_deadline_ratio > 0.5


def test_staticmax_ordering(fast_baseline, fitted_estimator):
    metrics = {}
    for policy in ("noadapt", "predictive", "staticmax"):
        config = ExperimentConfig(
            policy=policy,
            pattern="constant",
            max_workload_units=15.0,
            baseline=fast_baseline,
        )
        metrics[policy] = run_experiment(config, estimator=fitted_estimator).metrics
    assert (
        metrics["noadapt"].avg_replicas
        <= metrics["predictive"].avg_replicas
        <= metrics["staticmax"].avg_replicas
    )
    assert metrics["staticmax"].missed_deadline_ratio <= (
        metrics["noadapt"].missed_deadline_ratio
    )


def test_tracer_categories_cover_a_full_run():
    """Every trace category shows up during an adaptive run with a hub."""
    from repro.bench.app import aaw_task, default_initial_placement
    from repro.cluster.topology import build_system
    from repro.core.manager import AdaptiveResourceManager, RMConfig
    from repro.core.predictive import PredictivePolicy
    from repro.runtime.executor import PeriodicTaskExecutor
    from repro.tasks.state import ReplicaAssignment
    from repro.telemetry.hub import TelemetryHub
    from repro.telemetry.sinks import MemorySink

    from tests.conftest import exact_estimator

    sink = MemorySink()
    system = build_system(n_processors=6, seed=1, telemetry=TelemetryHub(sink=sink))
    task = aaw_task(noise_sigma=0.0)
    assignment = ReplicaAssignment(
        task, default_initial_placement(task, [p.name for p in system.processors])
    )
    executor = PeriodicTaskExecutor(
        system, task, assignment, workload=lambda c: 6000.0
    )
    manager = AdaptiveResourceManager(
        system, executor, exact_estimator(task),
        policy=PredictivePolicy(), config=RMConfig(initial_d_tracks=1000.0),
    )
    manager.start(6)
    executor.start(6)
    system.processor("p6").fail()
    system.engine.run_until(8.0)

    categories = {r["cat"] for r in sink.records if r["kind"] == "trace"}
    assert categories == {"job", "message", "period", "rm", "failure"}
