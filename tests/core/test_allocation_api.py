"""Unit tests for the allocation contract.

Covers the :class:`AllocationContext` / :class:`AllocationPlan` surface
(including the one worst-replica forecast), the
:class:`CandidatePolicyAdapter` base class, the registry's error
wrapping, and the per-candidate types that left the contract.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.bench.app import aaw_task, default_initial_placement
from repro.cluster.topology import build_system
from repro.core.allocation import (
    AllocationContext,
    AllocationOutcome,
    AllocationPlan,
    Allocator,
    CandidatePolicyAdapter,
    check_allocator,
    get_policy,
    register_policy,
    registered_policies,
)
from repro.core.deadlines import DeadlineAssignment
from repro.core.hardening import sanitize_reading
from repro.core.nonpredictive import NonPredictivePolicy
from repro.core.predictive import PredictivePolicy
from repro.errors import AllocationError
from repro.tasks.state import ReplicaAssignment

from tests.conftest import exact_estimator


def make_context(candidates=(3,), d_tracks=5000.0, budget=0.35, n_processors=6,
                 excluded=frozenset()):
    """A small cycle context over the benchmark task (subtask 3 flagged)."""
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
        candidates=tuple(candidates),
        excluded_processors=excluded,
    )


class TestAllocationContext:
    def test_utilization_snapshot_covers_cluster(self):
        context = make_context()
        snapshot = context.utilization_snapshot()
        assert set(snapshot) == {p.name for p in context.system.processors}
        assert all(v == 0.0 for v in snapshot.values())

    def test_utilization_snapshot_applies_reading_guard(self):
        context = make_context()
        guarded = AllocationContext(
            task=context.task,
            assignment=context.assignment,
            system=context.system,
            estimator=context.estimator,
            deadlines=context.deadlines,
            d_tracks=context.d_tracks,
            total_periodic_tracks=context.total_periodic_tracks,
            candidates=context.candidates,
            reading_guard=lambda reading: 0.42,
        )
        assert set(guarded.utilization_snapshot().values()) == {0.42}

    def test_available_processors_excludes_hosting_and_guarded(self):
        context = make_context(excluded=frozenset({"p5"}))
        hosting = set(context.assignment.processors_of(3))
        names = [p.name for p in context.available_processors(3)]
        assert "p5" not in names
        assert not hosting & set(names)

    def test_stage_threshold_matches_figure5(self):
        context = make_context(budget=0.5)
        assert context.stage_threshold(3, 0.2) == pytest.approx(0.4)


class TestForecastLatency:
    """The one worst-replica ``eex + ecd`` sweep (Figure 5, step 6)."""

    def scalar_forecast(self, context, subtask_index, replicas, readings):
        """Eqs. 3-6 one replica at a time, from the given readings."""
        share = context.d_tracks / len(replicas)
        ecd = 0.0
        if subtask_index > 1:
            ecd = context.estimator.ecd_seconds(
                subtask_index - 1, share, context.total_periodic_tracks
            )
        worst = 0.0
        for name in replicas:
            eex = context.estimator.eex_seconds(
                subtask_index, share, readings[name]
            )
            worst = max(worst, eex + ecd)
        return worst

    def test_matches_the_scalar_sweep(self):
        context = make_context()
        context.system.processor("p2").reading_fault = lambda u: 0.35
        replicas = ("p3", "p2", "p6")
        readings = context.system.utilizations()
        assert context.forecast_latency(3, replicas) == self.scalar_forecast(
            context, 3, replicas, readings
        )

    def test_evaluates_a_hypothetical_placement_without_mutating(self):
        context = make_context()
        before = context.assignment.processors_of(3)
        one_more = context.forecast_latency(3, (*before, "p6"))
        assert context.assignment.processors_of(3) == before
        assert one_more < context.forecast_latency(3, before)

    def test_first_stage_has_no_incoming_message(self):
        context = make_context()
        replicas = context.assignment.processors_of(1)
        share = context.d_tracks / len(replicas)
        expected = max(
            context.estimator.eex_seconds(1, share, 0.0), 0.0
        )
        assert context.forecast_latency(1, replicas) == expected

    def test_applies_the_reading_guard(self):
        context = make_context()
        context.system.processor("p3").reading_fault = lambda u: -1.0
        guarded = AllocationContext(
            task=context.task,
            assignment=context.assignment,
            system=context.system,
            estimator=context.estimator,
            deadlines=context.deadlines,
            d_tracks=context.d_tracks,
            total_periodic_tracks=context.total_periodic_tracks,
            reading_guard=lambda reading: sanitize_reading(reading, 0.1),
        )
        replicas = ("p3", "p4")
        assert guarded.forecast_latency(3, replicas) == self.scalar_forecast(
            context, 3, replicas, {"p3": 0.0, "p4": 0.0}
        )


class TestAllocationPlan:
    def test_changed_and_lookup(self):
        plan = AllocationPlan(
            outcomes=(
                AllocationOutcome(subtask_index=3, success=True,
                                  added_processors=("p4",)),
                AllocationOutcome(subtask_index=5, success=False),
            ),
            allocator_name="test",
        )
        assert plan.changed
        assert plan.outcome_for(5).success is False
        assert plan.outcome_for(7) is None

    def test_empty_plan_is_unchanged(self):
        assert not AllocationPlan().changed


class TestCandidatePolicyAdapter:
    def test_adapter_replays_candidates_in_order(self):
        seen = []

        class Recorder(CandidatePolicyAdapter):
            name = "recorder"

            def replicate(self, context, subtask_index):
                seen.append(subtask_index)
                return AllocationOutcome(
                    subtask_index=subtask_index, success=True
                )

        context = make_context(candidates=(5, 3))
        plan = Recorder().allocate(context)
        assert seen == [5, 3]
        assert [o.subtask_index for o in plan.outcomes] == [5, 3]
        assert plan.allocator_name == "recorder"

    def test_adapter_matches_direct_policy_calls(self):
        """``allocate`` is the historical loop: same outcomes, same placement."""
        direct = make_context()
        policy = PredictivePolicy(slack_fraction=0.2)
        direct_outcome = policy.replicate(direct, 3)

        looped = make_context()
        plan = PredictivePolicy(slack_fraction=0.2).allocate(looped)
        assert plan.outcomes == (direct_outcome,)
        assert looped.assignment.processors_of(3) == direct.assignment.processors_of(3)

    def test_check_allocator_passes_through(self):
        policy = NonPredictivePolicy()
        assert check_allocator(policy) is policy

    def test_check_allocator_rejects_foreign(self):
        with pytest.raises(AllocationError, match="Removed in 2.0"):
            check_allocator(object())

    def test_check_allocator_names_a_heading_of_the_api_guide(self):
        with pytest.raises(AllocationError) as caught:
            check_allocator(object())
        doc, heading = re.search(
            r'see (\S+), "([^"]+)"', str(caught.value)
        ).groups()
        text = (Path(__file__).parents[2] / doc).read_text()
        assert re.search(rf"^#+ {re.escape(heading)}$", text, re.MULTILINE)

    def test_adapter_satisfies_allocator_protocol(self):
        assert isinstance(NonPredictivePolicy(), Allocator)

    def test_adapter_requires_replicate(self):
        class Incomplete(CandidatePolicyAdapter):
            name = "incomplete"

        with pytest.raises(TypeError):
            Incomplete()


class TestRegistryErrors:
    def test_unknown_name_lists_registry(self):
        with pytest.raises(AllocationError, match="registered:"):
            get_policy("alchemy")

    def test_factory_typeerror_wrapped_with_kwargs(self):
        """Bad kwargs surface as AllocationError naming the accepted set."""
        with pytest.raises(AllocationError) as excinfo:
            get_policy("predictive", no_such_option=1)
        message = str(excinfo.value)
        assert "predictive" in message
        assert "no_such_option" in message
        assert "slack_fraction" in message

    def test_factory_internal_typeerror_also_wrapped(self):
        def exploding_factory(**kwargs):
            raise TypeError("internal boom")

        register_policy("exploding-test", exploding_factory)
        try:
            with pytest.raises(AllocationError, match="internal boom"):
                get_policy("exploding-test")
        finally:
            from repro.core import allocation

            allocation._REGISTRY.pop("exploding-test", None)

    def test_get_policy_returns_allocators_ready_to_run(self):
        from repro.core.zoo import MarketAllocator

        predictive = get_policy("predictive", slack_fraction=0.3)
        assert isinstance(predictive, PredictivePolicy)
        assert predictive.slack_fraction == 0.3
        assert isinstance(get_policy("market"), MarketAllocator)

    def test_factory_without_allocate_rejected_at_lookup(self):
        class PreContextPolicy:
            name = "pre-context"

            def replicate(self, request):  # the removed per-candidate shape
                raise AssertionError("never called")

        register_policy("pre-context-test", PreContextPolicy)
        try:
            with pytest.raises(AllocationError, match="allocate"):
                get_policy("pre-context-test")
        finally:
            from repro.core import allocation

            allocation._REGISTRY.pop("pre-context-test", None)

    def test_zoo_registered(self):
        assert {"market", "fairshare", "oracle"} <= set(registered_policies())


class TestRemovedTypes:
    @pytest.mark.parametrize("name", ["AllocationPolicy", "AllocationRequest"])
    def test_removed_per_candidate_types_are_gone(self, name):
        from repro.core import allocation

        assert not hasattr(allocation, name)
