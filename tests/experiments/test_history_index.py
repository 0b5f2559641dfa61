"""The shared indexed pass must equal the full rescans it replaced."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.app import aaw_task, default_initial_placement
from repro.cluster.topology import build_system
from repro.core.manager import AdaptiveResourceManager, RMConfig
from repro.core.predictive import PredictivePolicy
from repro.experiments.config import BaselineConfig
from repro.experiments.export import rm_history_to_csv
from repro.experiments.forecast_eval import calibration_from_run
from repro.experiments.history_index import RunHistoryIndex, decision_event_key
from repro.experiments.metrics import ExperimentMetrics, compute_metrics
from repro.experiments.timeline import extract_timeline
from repro.runtime.executor import ExecutorConfig, PeriodicTaskExecutor
from repro.tasks.state import ReplicaAssignment
from repro.workloads.patterns import make_pattern

BASELINE = BaselineConfig(n_periods=25, seed=5)


@pytest.fixture(scope="module")
def finished_run(fitted_estimator):
    """A finished predictive run heavy enough to replicate/shut down."""
    baseline = BASELINE
    system = build_system(
        n_processors=baseline.n_nodes,
        bandwidth_bps=baseline.bandwidth_bps,
        seed=baseline.seed,
    )
    task = aaw_task(
        period=baseline.period,
        deadline=baseline.deadline,
        noise_sigma=baseline.noise_sigma,
    )
    assignment = ReplicaAssignment(
        task, default_initial_placement(task, [p.name for p in system.processors])
    )
    pattern = make_pattern(
        "triangular",
        min_tracks=500.0,
        max_tracks=7500.0,
        n_periods=baseline.n_periods,
    )
    executor = PeriodicTaskExecutor(
        system,
        task,
        assignment,
        workload=pattern,
        config=ExecutorConfig(drop_factor=baseline.drop_factor),
    )
    manager = AdaptiveResourceManager(
        system,
        executor,
        fitted_estimator,
        policy=PredictivePolicy(slack_fraction=baseline.slack_fraction),
        config=RMConfig(initial_d_tracks=500.0),
    )
    manager.start(baseline.n_periods)
    executor.start(baseline.n_periods)
    horizon = baseline.n_periods * baseline.period
    system.engine.run_until(
        horizon + (baseline.drop_factor + 1.0) * baseline.period
    )
    return system, task, executor, manager, horizon


@pytest.fixture()
def index(finished_run):
    _, _, executor, manager, _ = finished_run
    return RunHistoryIndex(executor, manager).update()


def legacy_action_rows(manager):
    """The pre-index full-history scan (verbatim from the old export)."""
    rows = []
    for event in manager.history:
        for outcome in event.outcomes:
            if outcome.changed:
                rows.append(
                    (
                        event.time,
                        "replicate",
                        outcome.subtask_index,
                        "+".join(outcome.added_processors),
                        event.total_replicas,
                    )
                )
        for subtask_index, processor in event.shutdowns:
            rows.append(
                (
                    event.time,
                    "shutdown",
                    subtask_index,
                    processor,
                    event.total_replicas,
                )
            )
        for subtask_index, dead, target in event.recoveries:
            rows.append(
                (
                    event.time,
                    "recovery",
                    subtask_index,
                    f"{dead}->{target or 'evicted'}",
                    event.total_replicas,
                )
            )
    return rows


def legacy_metrics(system, executor, manager, t_start, t_end):
    """The pre-index ``compute_metrics`` record/history rescans (oracle)."""
    span = t_end - t_start
    records = [r for r in executor.records if r.release_time < t_end]
    released = len(records)
    missed = sum(
        1 for r in records if r.missed or (not r.completed and not r.aborted)
    )
    aborted = sum(1 for r in records if r.aborted)
    cpu_utils = [
        p.meter.busy_between(t_start, t_end) / span for p in system.processors
    ]
    samples = [
        count for time, count in manager.replica_samples() if t_start <= time < t_end
    ]
    return ExperimentMetrics(
        missed_deadline_ratio=missed / released if released else 0.0,
        avg_cpu_utilization=sum(cpu_utils) / len(cpu_utils),
        avg_network_utilization=(
            system.network.meter.busy_between(t_start, t_end) / span
        ),
        avg_replicas=(
            sum(samples) / len(samples)
            if samples
            else float(executor.assignment.total_replicas())
        ),
        max_replicas=system.size * len(executor.task.replicable_indices()),
        periods_released=released,
        periods_missed=missed,
        periods_aborted=aborted,
        rm_actions=manager.actions_taken(),
    )


class TestViewEquality:
    def test_run_has_decisions_to_index(self, finished_run, index):
        # Guard: an empty history would make every equality vacuous.
        assert len(index.action_rows()) > 0
        assert index.actions_taken() > 0

    def test_action_rows_match_legacy_scan(self, finished_run, index):
        _, _, _, manager, _ = finished_run
        assert index.action_rows() == legacy_action_rows(manager)

    def test_replica_samples_match_manager(self, finished_run, index):
        _, _, _, manager, _ = finished_run
        assert index.replica_samples() == manager.replica_samples()

    def test_actions_taken_match_manager(self, finished_run, index):
        _, _, _, manager, _ = finished_run
        assert index.actions_taken() == manager.actions_taken()

    @pytest.mark.parametrize("window", [(0.0, 1e9), (1.0, 3.0), (2.5, 2.6)])
    def test_windowed_replica_mean_is_exact(self, finished_run, index, window):
        _, _, _, manager, _ = finished_run
        t_start, t_end = window
        samples = [
            count
            for time, count in manager.replica_samples()
            if t_start <= time < t_end
        ]
        expected = sum(samples) / len(samples) if samples else None
        assert index.windowed_replica_mean(t_start, t_end) == expected

    @pytest.mark.parametrize("t_end_factor", [0.5, 1.0, 10.0])
    def test_period_counts_match_legacy_filter(
        self, finished_run, index, t_end_factor
    ):
        _, _, executor, _, horizon = finished_run
        t_end = horizon * t_end_factor
        records = [r for r in executor.records if r.release_time < t_end]
        released = len(records)
        missed = sum(
            1
            for r in records
            if r.missed or (not r.completed and not r.aborted)
        )
        aborted = sum(1 for r in records if r.aborted)
        assert index.period_counts(t_end) == (released, missed, aborted)

    def test_record_of_period(self, finished_run, index):
        _, _, executor, _, _ = finished_run
        for record in executor.records:
            assert index.record_of_period(record.period_index) is record
        assert index.record_of_period(10_000) is None


class TestConsumerEquality:
    def test_metrics_with_and_without_index_equal(self, finished_run, index):
        system, _, executor, manager, horizon = finished_run
        legacy = legacy_metrics(system, executor, manager, 0.0, horizon)
        adhoc = compute_metrics(system, executor, manager, 0.0, horizon)
        indexed = compute_metrics(
            system, executor, manager, 0.0, horizon, index=index
        )
        assert adhoc == legacy
        assert indexed == legacy
        assert legacy.rm_actions > 0

    def test_csv_with_and_without_index_byte_identical(
        self, finished_run, index, tmp_path
    ):
        _, _, _, manager, _ = finished_run
        adhoc = rm_history_to_csv(manager, tmp_path / "adhoc.csv")
        shared = rm_history_to_csv(
            manager, tmp_path / "shared.csv", index=index
        )
        assert shared.read_bytes() == adhoc.read_bytes()
        assert adhoc.read_text().count("\n") > 1  # header + real rows

    def test_timeline_with_and_without_index_equal(self, finished_run, index):
        _, _, executor, manager, _ = finished_run
        legacy = extract_timeline(executor, manager)
        indexed = extract_timeline(executor, manager, index=index)
        for name in (
            "periods",
            "workload_tracks",
            "latency_s",
            "missed",
            "total_replicas",
            "rm_acted",
        ):
            a, b = getattr(legacy, name), getattr(indexed, name)
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name

    def test_calibration_with_and_without_index_equal(
        self, finished_run, index
    ):
        _, task, executor, manager, _ = finished_run
        legacy = calibration_from_run(
            task, executor, manager, BASELINE.n_periods
        )
        indexed = calibration_from_run(
            task, executor, manager, BASELINE.n_periods, index=index
        )
        assert indexed == legacy


class TestDigest:
    def test_update_is_idempotent(self, finished_run, index):
        digest = index.decision_digest
        index.update()
        index.update()
        assert index.decision_digest == digest

    def test_fresh_index_agrees(self, finished_run, index):
        _, _, executor, manager, _ = finished_run
        fresh = RunHistoryIndex(executor, manager).update()
        assert fresh.decision_digest == index.decision_digest

    def test_digest_covers_the_whole_history(self, finished_run, index):
        import hashlib

        _, _, _, manager, _ = finished_run
        expected = hashlib.sha256()
        for event in manager.history:
            expected.update(repr(decision_event_key(event)).encode())
        assert index.decision_digest == expected.hexdigest()

    def test_decision_event_key_is_stable_and_hashable(self, finished_run):
        _, _, _, manager, _ = finished_run
        keys = [decision_event_key(e) for e in manager.history]
        assert len(set(keys)) == len(keys)  # distinct steps, distinct keys
