"""Integration-grade unit tests for the adaptive resource manager."""

from __future__ import annotations

import pytest

from repro.bench.app import aaw_task, default_initial_placement
from repro.cluster.topology import build_system
from repro.core.manager import AdaptiveResourceManager, RMConfig
from repro.core.nonpredictive import NonPredictivePolicy
from repro.core.predictive import PredictivePolicy
from repro.core.hardening import HardeningConfig
from repro.errors import AllocationError, ConfigurationError
from repro.runtime.executor import PeriodicTaskExecutor
from repro.tasks.state import ReplicaAssignment

from tests.conftest import exact_estimator


def make_stack(policy, workload, n_periods=20, seed=0, rm_config=None):
    system = build_system(n_processors=6, seed=seed)
    task = aaw_task(noise_sigma=0.0)
    placement = default_initial_placement(task, [p.name for p in system.processors])
    assignment = ReplicaAssignment(task, placement)
    executor = PeriodicTaskExecutor(system, task, assignment, workload=workload)
    manager = AdaptiveResourceManager(
        system,
        executor,
        exact_estimator(task),
        policy=policy,
        config=rm_config or RMConfig(initial_d_tracks=500.0),
    )
    manager.start(n_periods)
    executor.start(n_periods)
    return system, task, assignment, executor, manager


class TestRMConfig:
    def test_bad_initial_tracks_rejected(self):
        with pytest.raises(ConfigurationError):
            RMConfig(initial_d_tracks=0.0)

    def test_bad_initial_utilization_rejected(self):
        with pytest.raises(ConfigurationError):
            RMConfig(initial_utilization=1.5)

    def test_bad_deadline_reference_rejected(self):
        with pytest.raises(ConfigurationError):
            RMConfig(deadline_reference="magic")


class PreContextPolicy:
    """The removed per-candidate shape: ``replicate(request)``, no ``allocate``."""

    name = "pre-context"

    def replicate(self, request):
        raise AssertionError("never called")


class TestPolicyValidation:
    def test_policy_without_allocate_rejected_at_construction(self):
        with pytest.raises(AllocationError, match="Removed in 2.0"):
            make_stack(PreContextPolicy(), lambda c: 500.0)

    def test_fallback_without_allocate_rejected_at_construction(self):
        system = build_system(n_processors=6, seed=0)
        task = aaw_task(noise_sigma=0.0)
        placement = default_initial_placement(
            task, [p.name for p in system.processors]
        )
        executor = PeriodicTaskExecutor(
            system, task, ReplicaAssignment(task, placement),
            workload=lambda c: 500.0,
        )
        with pytest.raises(AllocationError, match="allocate"):
            AdaptiveResourceManager(
                system,
                executor,
                exact_estimator(task),
                policy=PredictivePolicy(),
                hardening=HardeningConfig(),
                fallback_policy=PreContextPolicy(),
            )


class TestInitialDeadlines:
    def test_assigned_from_initial_conditions(self):
        _, task, _, _, manager = make_stack(PredictivePolicy(), lambda c: 500.0)
        assert set(manager.deadlines.subtask_deadlines) == {1, 2, 3, 4, 5}
        # Sequential EQF budgets sum to the deadline.
        assert manager.deadlines.total_budget() == pytest.approx(task.deadline)


class TestControlLoop:
    def test_steady_light_load_never_acts(self):
        system, _, assignment, executor, manager = make_stack(
            PredictivePolicy(), lambda c: 400.0
        )
        system.engine.run_until(21.0)
        assert manager.actions_taken() == 0
        assert assignment.total_replicas() == 2
        assert all(not r.missed for r in executor.records)

    def test_heavy_load_triggers_replication(self):
        system, _, assignment, executor, manager = make_stack(
            PredictivePolicy(), lambda c: 8000.0
        )
        system.engine.run_until(21.0)
        assert manager.actions_taken() > 0
        assert assignment.replica_count(3) > 1
        # Once adapted, deadlines are met again.
        tail = executor.records[-5:]
        assert all(not r.missed for r in tail)

    def test_nonpredictive_overallocates_relative_to_predictive(self):
        def run(policy):
            system, _, assignment, _, manager = make_stack(policy, lambda c: 6000.0)
            system.engine.run_until(21.0)
            samples = [count for _, count in manager.replica_samples()]
            return sum(samples) / len(samples)

        predictive_avg = run(PredictivePolicy())
        nonpredictive_avg = run(NonPredictivePolicy())
        assert nonpredictive_avg > predictive_avg

    def test_load_drop_triggers_shutdown(self):
        # High load for 10 periods, then near-idle.
        def workload(c):
            return 8000.0 if c < 10 else 300.0

        system, _, assignment, _, manager = make_stack(
            PredictivePolicy(), workload, n_periods=40
        )
        system.engine.run_until(41.0)
        peak = max(count for _, count in manager.replica_samples())
        final = assignment.total_replicas()
        assert peak > 2
        assert final < peak  # replicas were shut down after the drop

    def test_shutdown_is_one_replica_per_step(self):
        def workload(c):
            return 8000.0 if c < 10 else 300.0

        system, _, _, _, manager = make_stack(
            PredictivePolicy(), workload, n_periods=40
        )
        system.engine.run_until(41.0)
        counts = [count for _, count in manager.replica_samples()]
        for before, after in zip(counts, counts[1:]):
            # Each step removes at most one replica per replicable subtask.
            assert before - after <= 2

    def test_deadlines_reassigned_on_action(self):
        system, _, _, _, manager = make_stack(PredictivePolicy(), lambda c: 8000.0)
        initial = manager.deadlines
        system.engine.run_until(21.0)
        assert manager.actions_taken() > 0
        assert manager.deadlines is not initial

    def test_history_records_every_step(self):
        system, _, _, _, manager = make_stack(
            PredictivePolicy(), lambda c: 500.0, n_periods=15
        )
        system.engine.run_until(16.0)
        assert len(manager.history) == 15
        assert all(event.total_replicas >= 2 for event in manager.history)

    def test_rm_step_runs_before_release(self):
        """The RM event at t=k fires before the release at t=k."""
        system, _, assignment, executor, manager = make_stack(
            PredictivePolicy(), lambda c: 8000.0
        )
        system.engine.run_until(21.0)
        # Find the first step that acted; the release of the same period
        # index must already see the enlarged replica set.
        for event in manager.history:
            if event.acted:
                period_index = int(round(event.time))
                record = executor.records[period_index]
                added_to = event.outcomes[0].subtask_index
                assert record.stage(added_to) is None or (
                    record.stage(added_to).replica_count
                    >= len(event.placement[added_to])
                )
                break

    def test_step_callable_directly(self):
        system, _, _, _, manager = make_stack(PredictivePolicy(), lambda c: 500.0)
        event = manager.step()
        assert event.report.time == system.engine.now
        assert not event.acted


class TestDeadlineReferenceAblation:
    def test_current_reference_creeps_to_max_allocation(self):
        """The documented failure mode of self-referential budgets."""
        stable = make_stack(
            PredictivePolicy(),
            lambda c: 6000.0,
            rm_config=RMConfig(initial_d_tracks=500.0, deadline_reference="initial"),
        )
        creeping = make_stack(
            PredictivePolicy(),
            lambda c: 6000.0,
            rm_config=RMConfig(initial_d_tracks=500.0, deadline_reference="current"),
        )
        for system, *_ in (stable, creeping):
            system.engine.run_until(21.0)
        stable_replicas = stable[2].total_replicas()
        creeping_replicas = creeping[2].total_replicas()
        assert creeping_replicas >= stable_replicas
