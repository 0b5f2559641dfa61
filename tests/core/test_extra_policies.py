"""Unit tests for the extension policies and shutdown strategies."""

from __future__ import annotations

from repro.core.allocation import get_policy, registered_policies
from repro.core.extra_policies import (
    HybridPolicy,
    NoAdaptationPolicy,
    StaticMaxPolicy,
)
from repro.core.hardening import sanitize_reading
from repro.core.shutdown import ForecastAwareShutdown, LifoShutdown

from tests.core.test_policies import make_context


class TestNoAdaptationPolicy:
    def test_never_touches_placement(self):
        context = make_context()
        before = context.assignment.snapshot()
        outcome = NoAdaptationPolicy().replicate(context, 3)
        assert not outcome.success
        assert outcome.added_processors == ()
        assert context.assignment.snapshot() == before


class TestStaticMaxPolicy:
    def test_grabs_every_processor(self):
        context = make_context()
        outcome = StaticMaxPolicy().replicate(context, 3)
        assert outcome.success
        assert context.assignment.replica_count(3) == 6

    def test_idempotent_on_full_machine(self):
        context = make_context()
        StaticMaxPolicy().replicate(context, 3)
        outcome = StaticMaxPolicy().replicate(context, 3)
        assert outcome.added_processors == ()
        assert context.assignment.replica_count(3) == 6

    def test_ignores_utilization(self):
        context = make_context()
        for p in context.system.processors:
            p.run_for(10.0)
        context.system.engine.run_until(4.0)
        outcome = StaticMaxPolicy().replicate(context, 3)
        assert len(outcome.added_processors) == 5


class TestHybridPolicy:
    def test_behaves_like_predictive_when_feasible(self):
        context = make_context(d_tracks=5000.0, budget=0.35)
        outcome = HybridPolicy().replicate(context, 3)
        assert outcome.success
        assert context.assignment.replica_count(3) == 2

    def test_falls_back_when_budget_unreachable(self):
        # Impossible budget on a small machine: predictive FAILs after
        # grabbing everything; the fallback finds nothing left but the
        # outcome is reported via the heuristic path.
        context = make_context(d_tracks=20000.0, budget=0.01, n_processors=3)
        outcome = HybridPolicy().replicate(context, 3)
        assert context.assignment.replica_count(3) == 3
        assert outcome.success  # Figure 7 semantics: always succeeds


class TestPolicyRegistry:
    def test_extension_policies_registered(self):
        assert {"noadapt", "staticmax", "hybrid"} <= set(registered_policies())

    def test_instantiable_by_name(self):
        assert get_policy("staticmax").name == "staticmax"


class TestLifoShutdown:
    def test_matches_figure6(self):
        context = make_context()
        context.assignment.add_replica(3, "p6")
        assert LifoShutdown().shutdown(context, 3) == "p6"
        assert LifoShutdown().shutdown(context, 3) is None


class TestForecastAwareShutdown:
    def test_refuses_unsafe_shutdown(self):
        """With 2 replicas barely fitting, removal is forecast to break
        timeliness, so the strategy declines."""
        context = make_context(d_tracks=5000.0, budget=0.35)
        context.assignment.add_replica(3, "p6")  # k=2 fits, k=1 would not
        strategy = ForecastAwareShutdown(slack_fraction=0.2)
        assert strategy.shutdown(context, 3) is None
        assert context.assignment.replica_count(3) == 2

    def test_allows_safe_shutdown(self):
        """At a tiny workload even one replica fits: removal proceeds."""
        context = make_context(d_tracks=300.0, budget=0.35)
        context.assignment.add_replica(3, "p6")
        strategy = ForecastAwareShutdown(slack_fraction=0.2)
        assert strategy.shutdown(context, 3) == "p6"

    def test_never_removes_original(self):
        context = make_context(d_tracks=100.0, budget=0.9)
        assert ForecastAwareShutdown().shutdown(context, 3) is None

    def test_applies_the_reading_guard(self):
        """An implausible survivor reading is sanitized, not fed to eq. 3.

        The hardened loop installs the reading guard on the context;
        the k-1 forecast must use it exactly as Figure 5 does.
        """
        context = make_context(
            d_tracks=300.0,
            budget=0.35,
            reading_guard=lambda reading: sanitize_reading(reading, 0.1),
        )
        context.assignment.add_replica(3, "p6")
        context.assignment.add_replica(3, "p1")
        context.system.processor("p6").reading_fault = lambda u: -1.0
        strategy = ForecastAwareShutdown(slack_fraction=0.2)
        assert strategy.shutdown(context, 3) == "p1"
        assert context.assignment.processors_of(3) == ("p3", "p6")
