"""Unit tests for the predictive (Fig. 5) and non-predictive (Fig. 7)
allocation policies and shutdown (Fig. 6)."""

from __future__ import annotations

import pytest

from repro.bench.app import aaw_task, default_initial_placement
from repro.cluster.topology import build_system
from repro.core.allocation import (
    AllocationContext,
    get_policy,
    register_policy,
    registered_policies,
)
from repro.core.deadlines import DeadlineAssignment
from repro.core.nonpredictive import NonPredictivePolicy
from repro.core.predictive import PredictivePolicy
from repro.core.shutdown import shut_down_a_replica
from repro.errors import AllocationError, ConfigurationError
from repro.tasks.state import ReplicaAssignment

from tests.conftest import exact_estimator


def make_context(d_tracks=5000.0, budget=0.35, n_processors=6, reading_guard=None):
    """One cycle's context over the benchmark task; tests pick the candidate."""
    system = build_system(n_processors=n_processors, seed=0)
    task = aaw_task(noise_sigma=0.0)
    placement = default_initial_placement(task, [p.name for p in system.processors])
    assignment = ReplicaAssignment(task, placement)
    deadlines = DeadlineAssignment(
        subtask_deadlines={s.index: budget for s in task.subtasks},
        message_deadlines={m.index: 0.0 for m in task.messages},
        strategy="test",
    )
    return AllocationContext(
        task=task,
        assignment=assignment,
        system=system,
        estimator=exact_estimator(task),
        deadlines=deadlines,
        d_tracks=d_tracks,
        total_periodic_tracks=d_tracks,
        reading_guard=reading_guard,
    )


class TestPredictivePolicy:
    def test_invalid_slack_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            PredictivePolicy(slack_fraction=1.0)

    def test_adds_minimum_replicas_to_meet_budget(self):
        """5000 tracks, budget 0.35, sl=0.2 -> threshold 0.28 s.

        With the analytic estimator (eex == demand, ecd tiny):
        k=2 -> Filter share 2500 tracks -> 0.3*625 + 2*25 = 237.5 ms: fits.
        """
        context = make_context(d_tracks=5000.0, budget=0.35)
        outcome = PredictivePolicy(slack_fraction=0.2).replicate(context, 3)
        assert outcome.success
        assert len(outcome.added_processors) == 1
        assert context.assignment.replica_count(3) == 2
        assert outcome.forecast_latency < 0.28

    def test_larger_workload_needs_more_replicas(self):
        context = make_context(d_tracks=10000.0, budget=0.35)
        outcome = PredictivePolicy(slack_fraction=0.2).replicate(context, 3)
        assert outcome.success
        # k=2: 0.3*25^2+2*25 = 237.5 ms... with d=10000, share=5000:
        # 0.3*2500+100 = 850 ms -> needs k>=3 (share 33.3: 0.3*1111+66=400)
        # -> k=4 (share 25: 237) fits 0.28 threshold.
        assert context.assignment.replica_count(3) >= 3

    def test_always_adds_at_least_one_replica(self):
        """A flagged candidate gets a replica even if forecasts look fine."""
        context = make_context(d_tracks=100.0, budget=0.9)
        outcome = PredictivePolicy().replicate(context, 3)
        assert outcome.success
        assert len(outcome.added_processors) == 1

    def test_failure_when_processors_exhausted(self):
        context = make_context(d_tracks=20000.0, budget=0.05, n_processors=3)
        outcome = PredictivePolicy().replicate(context, 3)
        assert not outcome.success
        # Paper semantics: replicas added along the way are kept.
        assert context.assignment.replica_count(3) == 3

    def test_places_on_least_utilized_processor(self):
        context = make_context(d_tracks=5000.0, budget=0.35)
        # Load p6 (the idle node) so p1 becomes least utilized... p1 hosts
        # subtask 1's original but utilization ranking considers any
        # non-hosting processor; make p6 busy:
        context.system.processor("p6").run_for(10.0)
        context.system.engine.run_until(4.0)
        outcome = PredictivePolicy().replicate(context, 3)
        assert outcome.added_processors[0] != "p6"

    def test_skips_processors_already_hosting(self):
        context = make_context()
        context.assignment.reset(3, ["p3", "p6", "p1", "p2", "p4"])
        outcome = PredictivePolicy().replicate(context, 3)
        for name in outcome.added_processors:
            assert name == "p5"  # only non-hosting processor left

    def test_forecast_includes_incoming_message_for_later_stages(self):
        """Stage 1 has no incoming message; stage 3 does."""
        context3 = make_context(d_tracks=5000.0, budget=10.0)
        outcome3 = PredictivePolicy().replicate(context3, 3)
        # Same data, budget, but compute for stage 5 whose exec demand is
        # smaller at the same share; message delay still included.
        context5 = make_context(d_tracks=5000.0, budget=10.0)
        outcome5 = PredictivePolicy().replicate(context5, 5)
        assert outcome3.forecast_latency > 0.0
        assert outcome5.forecast_latency > 0.0


class TestNonPredictivePolicy:
    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            NonPredictivePolicy(utilization_threshold=0.0)

    def test_replicates_onto_all_idle_processors(self):
        context = make_context()
        outcome = NonPredictivePolicy(utilization_threshold=0.2).replicate(context, 3)
        assert outcome.success
        # All 5 non-hosting processors are idle -> all added.
        assert len(outcome.added_processors) == 5
        assert context.assignment.replica_count(3) == 6

    def test_skips_highly_utilized_processors(self):
        context = make_context()
        context.system.processor("p6").run_for(10.0)
        context.system.processor("p5").run_for(10.0)
        context.system.engine.run_until(4.0)  # p5, p6 now ~100% utilized
        outcome = NonPredictivePolicy(utilization_threshold=0.2).replicate(context, 3)
        assert set(outcome.added_processors).isdisjoint({"p5", "p6"})
        assert len(outcome.added_processors) == 3

    def test_no_candidates_still_succeeds(self):
        context = make_context()
        for p in context.system.processors:
            p.run_for(10.0)
        context.system.engine.run_until(4.0)
        outcome = NonPredictivePolicy(utilization_threshold=0.2).replicate(context, 3)
        assert outcome.success
        assert outcome.added_processors == ()

    def test_ignores_estimator_entirely(self):
        """The heuristic must not consult forecasts."""
        context = make_context()
        outcome = NonPredictivePolicy().replicate(context, 3)
        assert outcome.forecast_latency is None


class TestShutdown:
    def test_removes_last_added(self):
        context = make_context()
        context.assignment.add_replica(3, "p6")
        context.assignment.add_replica(3, "p1")
        assert shut_down_a_replica(context.assignment, 3) == "p1"
        assert context.assignment.processors_of(3) == ("p3", "p6")

    def test_never_removes_original(self):
        context = make_context()
        assert shut_down_a_replica(context.assignment, 3) is None
        assert context.assignment.replica_count(3) == 1


class TestRegistry:
    def test_builtin_policies_registered(self):
        assert {"predictive", "nonpredictive"} <= set(registered_policies())

    def test_get_policy_instantiates(self):
        policy = get_policy("predictive", slack_fraction=0.3)
        assert policy.slack_fraction == 0.3

    def test_unknown_policy_rejected(self):
        with pytest.raises(AllocationError):
            get_policy("alchemy")

    def test_conflicting_registration_rejected(self):
        with pytest.raises(AllocationError):
            register_policy("predictive", NonPredictivePolicy)

    def test_reregistering_same_factory_is_ok(self):
        register_policy("predictive", PredictivePolicy)
