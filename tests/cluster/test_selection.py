"""Tests for the utilization views of :class:`~repro.cluster.topology.System`.

``by_utilization`` (Figure 5's walk), ``least_utilized`` (its head,
Figure 5 step 3), ``processors_below`` (Figure 7's sweep) and
``mean_utilization`` select from one memoized reading per processor per
engine event.  Four families of guarantees:

* **Query equivalence** — under randomized background load, failures,
  and recoveries, every query returns the same answer as a fresh-read
  O(P) scan (the oracle below, which re-reads every meter per query).
* **Walk order** — draining ``by_utilization`` yields exactly the picks
  of repeated scans with a growing exclude set, ties and faults
  included.
* **Memo freshness** — the memo never outlives the event it was taken
  in, even when several events share one instant.
* **Decision equivalence** — full replication runs (P=6, and P=64 with
  wide replica fan-out) produce identical RM decision sequences with the
  memo and with a system that never memoizes.
"""

from __future__ import annotations

import pickle
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


def drain_scan(system, exclude=frozenset()):
    """Reference Figure 5 walk: repeated ``p_min`` scans, each pick
    added to the exclude set before the next."""
    picks = []
    blocked = set(exclude)
    while (found := least_utilized_scan(system, exclude=blocked)) is not None:
        picks.append(found.name)
        blocked.add(found.name)
    return picks


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


def assert_walk_matches(system, exclude=frozenset()):
    """Draining the walk equals the repeated-scan oracle, readings too."""
    walk = list(system.by_utilization(exclude))
    assert [name for _, name in walk] == drain_scan(system, exclude)
    assert [u for u, _ in walk] == [
        system.processor(name).utilization() for _, name in walk
    ]
    head = system.least_utilized(exclude=exclude)
    assert (head.name if head is not None else None) == (
        walk[0][1] if walk else None
    )


class TestWalkOrder:
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_randomized_load_walk_matches_repeated_scans(self, seed):
        rng = random.Random(seed)
        system = build_system(
            n_processors=14, seed=seed, clock_sync_enabled=False
        )
        drive_random_load(system, rng, horizon=20.0)
        t = 0.0
        while t < 22.0:
            t += rng.uniform(0.05, 1.0)
            system.engine.run_until(t)
            exclude = frozenset(
                p.name for p in system.processors if rng.random() < 0.25
            )
            assert_walk_matches(system)
            assert_walk_matches(system, exclude=exclude)

    def test_exact_ties_walk_in_name_string_order(self):
        # All idle: every reading is 0.0, so the name decides, and names
        # compare as strings: p10 < p11 < p12 < p2.
        system = build_system(n_processors=12, clock_sync_enabled=False)
        names = [name for _, name in system.by_utilization()]
        assert names[:5] == ["p1", "p10", "p11", "p12", "p2"]
        assert names == sorted(p.name for p in system.processors)
        assert names == drain_scan(system)
        excluded = [n for _, n in system.by_utilization({"p1", "p10"})]
        assert excluded[:2] == ["p11", "p12"]
        assert_walk_matches(system, exclude={"p1", "p10"})

    def test_ties_between_loaded_processors_break_by_name(self):
        system = build_system(n_processors=12, clock_sync_enabled=False)
        for name in ("p2", "p10", "p11"):
            system.processor(name).run_for(10.0)
        system.engine.run_until(2.0)
        loaded = [n for _, n in system.by_utilization() if n in {"p2", "p10", "p11"}]
        assert loaded == ["p10", "p11", "p2"]
        assert_walk_matches(system)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_fail_and_recover_churn(self, seed):
        rng = random.Random(seed)
        system = build_system(
            n_processors=12, seed=seed, clock_sync_enabled=False
        )
        drive_random_load(system, rng, horizon=15.0)
        t = 0.0
        while t < 16.0:
            t += rng.uniform(0.1, 0.8)
            system.engine.run_until(t)
            for proc in system.processors:
                roll = rng.random()
                if roll < 0.10:
                    proc.fail()
                elif roll < 0.25:
                    proc.recover()
            assert_walk_matches(system, exclude={"p3"})

    def test_failures_while_an_iterator_is_alive(self):
        # Readings are frozen for the event, but the failed flag is read
        # as the walk reaches each processor: each pick equals the scan
        # taken at the moment it is drawn.
        system = build_system(n_processors=8, clock_sync_enabled=False)
        for i, proc in enumerate(system.processors):
            proc.run_for(0.1 * (i + 1))
        system.engine.run_until(1.0)
        p3, p5, p6 = (system.processor(n) for n in ("p3", "p5", "p6"))
        p5.failed = True
        walk = system.by_utilization({"p2"})
        picks = [next(walk)[1]]
        p3.failed = True  # direct write, not yet reached
        p5.failed = False  # direct write, revived ahead of the walk
        p6.fail()  # a same-instant crash
        blocked = {"p2", *picks}
        for _, name in walk:
            want = least_utilized_scan(system, exclude=blocked)
            assert want is not None and name == want.name
            picks.append(name)
            blocked.add(name)
        assert least_utilized_scan(system, exclude=blocked) is None
        assert picks == ["p1", "p4", "p5", "p7", "p8"]

    def test_reading_faults_reorder_the_walk(self):
        system = build_system(n_processors=6, clock_sync_enabled=False)
        for proc in system.processors[3:]:
            proc.run_for(10.0)
        system.engine.run_until(1.0)
        assert [n for _, n in system.by_utilization()][:3] == ["p1", "p2", "p3"]
        system.processor("p1").reading_fault = lambda u: 1.5
        system.processor("p2").reading_fault = lambda u: -0.25
        system.engine.run_until(1.5)
        walk = list(system.by_utilization())
        assert walk[0] == (-0.25, "p2")
        assert walk[-1] == (1.5, "p1")
        assert_walk_matches(system)
        assert_walk_matches(system, exclude={"p2"})

    def test_walk_after_pickle_round_trip(self):
        # A restored snapshot carries its order with the readings it was
        # sorted from, and re-sorts at the next event like the original.
        system = build_system(n_processors=10, seed=7, clock_sync_enabled=False)
        for i, proc in enumerate(system.processors):
            proc.run_for(0.7 * ((3 * i) % 10) + 0.1)
        system.engine.run_until(3.0)
        before = list(system.by_utilization({"p4"}))
        restored = pickle.loads(pickle.dumps(system))
        assert list(restored.by_utilization({"p4"})) == before
        for world in (system, restored):
            world.engine.run_until(5.0)
        assert list(restored.by_utilization()) == list(system.by_utilization())
        assert_walk_matches(restored, exclude={"p4"})

    def test_fresh_read_system_sorts_fresh_at_the_same_instant(self):
        # The order is cached per readings dict, not per event: a system
        # that re-reads on every call must never be served a stale order.
        system = fresh_read(build_system(n_processors=4, clock_sync_enabled=False))
        system.processor("p4").run_for(5.0)
        system.engine.run_until(1.0)
        assert [n for _, n in system.by_utilization()] == ["p1", "p2", "p3", "p4"]
        system.processor("p1").reading_fault = lambda u: 0.9
        system.processor("p3").reading_fault = lambda u: -0.5
        # No event has run since the first walk.
        assert [n for _, n in system.by_utilization()] == ["p3", "p2", "p1", "p4"]
        assert system.least_utilized().name == "p3"
        assert_walk_matches(system)


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


def decision_manager(fresh, workload, policy=None, n_periods=40, n_processors=6):
    """A replication run, optionally on a never-memoizing system."""
    system = build_system(n_processors=n_processors, seed=0)
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


def run_decision_history(
    policy, workload, fresh, n_periods=40, horizon=41.0, n_processors=6
):
    """One full replication run; returns the RM decision sequence."""
    system, manager = decision_manager(
        fresh, workload, policy, n_periods, n_processors
    )
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
    """Runs decide identically with the memo and with fresh reads."""

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

    def test_predictive_wide_fan_out_at_p64_identical(self):
        # One Figure 5 walk adds dozens of replicas here, so every pick
        # after the first comes from deep in the sorted order.
        def surge(cycle):
            return 80000.0 if cycle < 8 else 300.0

        runs = [
            run_decision_history(
                PredictivePolicy(),
                surge,
                fresh=fresh,
                n_periods=20,
                horizon=21.0,
                n_processors=64,
            )
            for fresh in (False, True)
        ]
        assert runs[0] == runs[1]
        widest = max(
            len(outcome[1]) for step in runs[0] for outcome in step[4]
        )
        assert widest >= 20
        assert any(step[2] for step in runs[0])

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
