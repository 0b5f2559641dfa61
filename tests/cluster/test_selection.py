"""Tests for the utilization views of :class:`~repro.cluster.topology.System`.

``least_utilized`` (Figure 5 step 3), ``processors_below`` (Figure 7's
sweep) and ``mean_utilization`` select from one memoized reading per
processor per engine event.  Three families of guarantees:

* **Query equivalence** — under randomized background load, failures,
  and recoveries, every query returns the same answer as a fresh-read
  O(P) scan (the oracle below, which re-reads every meter per query).
* **Memo freshness** — the memo never outlives the event it was taken
  in, even when several events share one instant.
* **Decision equivalence** — full P=6 replication runs produce identical
  RM decision sequences with the memo and with a system that never
  memoizes.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.app import aaw_task, default_initial_placement
from repro.cluster.processor import Processor
from repro.cluster.topology import System, build_system
from repro.core.manager import AdaptiveResourceManager, RMConfig
from repro.core.nonpredictive import NonPredictivePolicy
from repro.core.predictive import PredictivePolicy
from repro.errors import ClusterError
from repro.runtime.executor import PeriodicTaskExecutor
from repro.tasks.state import ReplicaAssignment

from tests.conftest import exact_estimator

# -- the fresh-read oracle ----------------------------------------------------


def least_utilized_scan(system, exclude=frozenset()):
    """Reference O(P) ``p_min``: re-reads every live candidate's meter."""
    candidates = [
        p for p in system.processors if p.name not in exclude and not p.failed
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda p: (p.utilization(), p.name))


def processors_below_scan(system, threshold):
    """Reference O(P) threshold sweep in creation order, fresh reads."""
    return [
        p
        for p in system.processors
        if not p.failed and p.utilization() < threshold
    ]


class FreshReadSystem(System):
    """A system whose readings (and so ``utilizations()``) never memoize."""

    def _readings(self):
        return {p.name: p.utilization() for p in self.processors}


def assert_queries_match(system, exclude=frozenset(), thresholds=(0.1, 0.2, 0.5)):
    """Every memo-served query equals its fresh-read scan, bit for bit."""
    got = system.least_utilized(exclude=exclude)
    want = least_utilized_scan(system, exclude=exclude)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got.name == want.name
        assert system.utilizations_of([got.name]) == [want.utilization()]
    for threshold in thresholds:
        got_below = [p.name for p in system.processors_below(threshold)]
        want_below = [p.name for p in processors_below_scan(system, threshold)]
        assert got_below == want_below
    assert system.mean_utilization() == (
        sum(p.utilization() for p in system.processors) / len(system.processors)
    )
    assert system.utilizations() == {
        p.name: p.utilization() for p in system.processors
    }


def drive_random_load(system, rng, horizon, n_jobs=120):
    """Schedule bursty background jobs across the cluster."""
    for _ in range(n_jobs):
        proc = system.processors[rng.randrange(len(system.processors))]
        start = rng.uniform(0.0, horizon)
        demand = rng.uniform(0.05, 1.5)
        system.engine.schedule_at(
            start,
            lambda p=proc, d=demand: None if p.failed else p.run_for(d, kind="bg"),
            label="test.bg",
        )


class TestSelectionAgainstScan:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_load_agreement(self, seed):
        rng = random.Random(seed)
        system = build_system(
            n_processors=12, seed=seed, clock_sync_enabled=False
        )
        drive_random_load(system, rng, horizon=20.0)
        t = 0.0
        while t < 22.0:
            t += rng.uniform(0.05, 1.0)
            system.engine.run_until(t)
            exclude = frozenset(
                p.name
                for p in system.processors
                if rng.random() < 0.25
            )
            assert_queries_match(system, exclude=exclude)
            # Same-instant repeat must agree too (served from the memo).
            assert_queries_match(system, exclude=exclude)

    def test_exclude_everything_returns_none(self):
        system = build_system(n_processors=4, clock_sync_enabled=False)
        everyone = frozenset(p.name for p in system.processors)
        assert system.least_utilized(exclude=everyone) is None
        assert least_utilized_scan(system, exclude=everyone) is None

    def test_tie_break_is_by_name(self):
        system = build_system(n_processors=6, clock_sync_enabled=False)
        # All idle: every utilization is 0.0, so the name decides.
        found = system.least_utilized()
        assert found is not None and found.name == "p1"
        found = system.least_utilized(exclude={"p1", "p2"})
        assert found is not None and found.name == "p3"

    def test_below_preserves_creation_order(self):
        system = build_system(n_processors=8, clock_sync_enabled=False)
        # Load the middle processors so the selected set is non-trivial.
        for proc in system.processors[2:5]:
            proc.run_for(10.0)
        system.engine.run_until(3.0)
        names = [p.name for p in system.processors_below(0.5)]
        assert names == [p.name for p in processors_below_scan(system, 0.5)]
        assert names == sorted(names, key=lambda n: int(n[1:]))

    def test_repeated_below_never_duplicates(self):
        system = build_system(n_processors=6, clock_sync_enabled=False)
        system.processors[0].run_for(1.0)
        system.engine.run_until(2.0)
        for _ in range(4):
            names = [p.name for p in system.processors_below(0.9)]
            assert len(names) == len(set(names))


class TestFailuresAndRecovery:
    def test_failed_processors_never_returned(self):
        system = build_system(n_processors=6, clock_sync_enabled=False)
        system.engine.run_until(1.0)
        system.processors[0].fail()
        system.processors[1].fail()
        assert_queries_match(system)
        found = system.least_utilized()
        assert found is not None and found.name == "p3"
        assert all(not p.failed for p in system.processors_below(1.0))

    def test_recovery_readmits_processor(self):
        system = build_system(n_processors=6, clock_sync_enabled=False)
        for proc in system.processors[1:]:
            proc.run_for(20.0)
        system.engine.run_until(1.0)
        system.processors[0].fail()
        assert_queries_match(system)
        system.engine.run_until(2.0)
        system.processors[0].recover()
        assert_queries_match(system)
        found = system.least_utilized()
        assert found is not None and found.name == "p1"

    def test_direct_failed_flag_writes_stay_safe(self):
        # Some tests poke `failed` directly instead of calling fail();
        # the flag is checked at query time, so both must work.
        system = build_system(n_processors=5, clock_sync_enabled=False)
        system.engine.run_until(1.0)
        system.processors[0].failed = True
        assert_queries_match(system)
        system.processors[0].failed = False
        assert_queries_match(system)
        system.engine.run_until(2.0)
        assert_queries_match(system)

    def test_all_failed_yields_empty_answers(self):
        system = build_system(n_processors=3, clock_sync_enabled=False)
        for proc in system.processors:
            proc.fail()
        assert system.least_utilized() is None
        assert system.processors_below(1.0) == []

    @pytest.mark.parametrize("seed", [11, 12])
    def test_randomized_churn_agreement(self, seed):
        rng = random.Random(seed)
        system = build_system(
            n_processors=10, seed=seed, clock_sync_enabled=False
        )
        drive_random_load(system, rng, horizon=15.0)
        t = 0.0
        while t < 16.0:
            t += rng.uniform(0.1, 0.8)
            system.engine.run_until(t)
            for proc in system.processors:
                roll = rng.random()
                if roll < 0.10 and not proc.failed:
                    proc.fail()
                elif roll < 0.20 and proc.failed:
                    proc.recover()
            assert_queries_match(system)


class TestPerEventMemo:
    def test_reading_fault_set_by_an_earlier_event_at_the_same_instant(self):
        # p2 was busy for half of the first second, p1 never: p_min is p1
        # until a reading fault pins p1 at 1.0.  All three events run at
        # t=1.0, so a memo keyed on time alone would still answer p1.
        system = build_system(n_processors=2, clock_sync_enabled=False)
        p1, p2 = system.processors
        p2.run_for(0.5)
        answers = []

        def query():
            found = system.least_utilized()
            answers.append((found.name, least_utilized_scan(system).name))

        def corrupt():
            p1.reading_fault = lambda u: 1.0

        engine = system.engine
        engine.schedule_at(1.0, query, label="test.query")
        engine.schedule_at(1.0, corrupt, label="test.corrupt")
        engine.schedule_at(1.0, query, label="test.query")
        engine.run_until(2.0)
        assert answers == [("p1", "p1"), ("p2", "p2")]

    def test_one_reading_per_processor_per_event(self, monkeypatch):
        system = build_system(n_processors=16, clock_sync_enabled=False)
        for proc in system.processors[::3]:
            proc.run_for(5.0)
        system.engine.run_until(2.0)
        reads = []
        original = Processor.utilization

        def counting(self, now=None, window=None):
            reads.append(self.name)
            return original(self, now=now, window=window)

        monkeypatch.setattr(Processor, "utilization", counting)
        for _ in range(20):
            system.least_utilized(exclude={"p1"})
            system.processors_below(0.5)
            system.mean_utilization()
            system.utilizations_of(["p7", "p2"])
        assert sorted(reads) == sorted(p.name for p in system.processors)
        system.engine.run_until(3.0)
        system.least_utilized()
        assert len(reads) == 2 * len(system.processors)

    def test_unknown_processor_is_a_cluster_error(self):
        system = build_system(n_processors=3, clock_sync_enabled=False)
        with pytest.raises(ClusterError, match="p9"):
            system.utilizations_of(["p1", "p9"])

    def test_utilizations_returns_a_copy(self):
        system = build_system(n_processors=3, clock_sync_enabled=False)
        system.processors[0].run_for(1.0)
        system.engine.run_until(0.5)
        snapshot = system.utilizations()
        snapshot["p1"] = -1.0
        assert system.least_utilized().name == "p2"
        assert system.utilizations()["p1"] == system.processors[0].utilization()


def fresh_read(system):
    """The same world, viewed through a system that never memoizes."""
    return FreshReadSystem(
        engine=system.engine,
        processors=system.processors,
        network=system.network,
        clocks=system.clocks,
        clock_sync=system.clock_sync,
        rng=system.rng,
    )


def decision_manager(fresh, workload, policy=None, n_periods=40):
    """A P=6 replication run, optionally on a never-memoizing system."""
    system = build_system(n_processors=6, seed=0)
    if fresh:
        system = fresh_read(system)
    task = aaw_task(noise_sigma=0.0)
    placement = default_initial_placement(
        task, [p.name for p in system.processors]
    )
    assignment = ReplicaAssignment(task, placement)
    executor = PeriodicTaskExecutor(system, task, assignment, workload=workload)
    manager = AdaptiveResourceManager(
        system,
        executor,
        exact_estimator(task),
        policy=policy if policy is not None else PredictivePolicy(),
        config=RMConfig(initial_d_tracks=500.0),
    )
    manager.start(n_periods)
    executor.start(n_periods)
    return system, manager


def run_decision_history(policy, workload, fresh, n_periods=40, horizon=41.0):
    """One full replication run; returns the RM decision sequence."""
    system, manager = decision_manager(fresh, workload, policy, n_periods)
    system.engine.run_until(horizon)
    return [
        (
            event.time,
            event.placement,
            tuple(event.shutdowns),
            tuple(event.recoveries),
            tuple(
                (
                    outcome.subtask_index,
                    outcome.added_processors,
                    outcome.success,
                    outcome.forecast_latency,
                )
                for outcome in event.outcomes
            ),
        )
        for event in manager.history
    ]


class TestDecisionSequenceEquivalence:
    """P=6 runs decide identically with the memo and with fresh reads."""

    def rise_and_fall(self, cycle):
        return 8000.0 if cycle < 10 else 300.0

    def test_predictive_run_identical(self):
        memo = run_decision_history(
            PredictivePolicy(), self.rise_and_fall, fresh=False
        )
        fresh = run_decision_history(
            PredictivePolicy(), self.rise_and_fall, fresh=True
        )
        assert memo == fresh
        # The run actually exercised the hot paths (grew and shrank).
        assert any(step[4] and step[4][0][1] for step in memo)
        assert any(step[2] for step in memo)

    def test_nonpredictive_run_identical(self):
        memo = run_decision_history(
            NonPredictivePolicy(), self.rise_and_fall, fresh=False
        )
        fresh = run_decision_history(
            NonPredictivePolicy(), self.rise_and_fall, fresh=True
        )
        assert memo == fresh
        assert any(step[4] and step[4][0][1] for step in memo)

    def test_predictive_run_with_failure_identical(self):
        def run(fresh):
            system, manager = decision_manager(
                fresh, lambda c: 6000.0, n_periods=30
            )
            system.engine.schedule_at(
                9.5, system.processors[2].fail, label="test.fail"
            )
            system.engine.schedule_at(
                18.5, system.processors[2].recover, label="test.recover"
            )
            system.engine.run_until(31.0)
            return [
                (event.time, event.placement, tuple(event.recoveries))
                for event in manager.history
            ]

        memo = run(False)
        fresh = run(True)
        assert memo == fresh
        assert any(step[2] for step in memo)  # migration happened
