"""Unit tests for :meth:`Engine.schedule_many`, the batch-scheduling API.

The contract under test is the one the method documents: a batch is
*observationally identical* to a loop over :meth:`Engine.schedule_at` —
same sequence numbers, same execution order — for large sorted batches,
unsorted batches, batches racing single events and priorities, mid-run
scheduling from callbacks and cancellations.  The order tests run the
engine both with the default disabled telemetry hub and with a traced
one (a :class:`~repro.telemetry.hub.TelemetryHub` with a sink and an
armed profiler), because :meth:`Engine.run_until` times each batch and
reports it to the hub when telemetry is enabled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.sim.engine import Engine
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.sinks import MemorySink


class _LoopEngine(Engine):
    """Reference engine: ``schedule_many`` spelled as a loop of ``schedule_at``."""

    def schedule_many(
        self, times, callbacks, args_list=None, *, priority=0, labels=""
    ):
        n = len(times)
        cbs = callbacks if isinstance(callbacks, (list, tuple)) else [callbacks] * n
        labs = labels if isinstance(labels, (list, tuple)) else [labels] * n
        argss = args_list if args_list is not None else [()] * n
        events = []
        for i in range(n):
            events.append(
                self.schedule_at(
                    times[i], cbs[i], *argss[i], priority=priority, label=labs[i]
                )
            )
        return events


def _order_log(engine, drive):
    """Run ``drive(engine, log)`` and return the execution-order log."""
    log: list = []
    drive(engine, log)
    return log


def assert_equivalent(drive, traced):
    """The batch API must execute ``drive`` exactly as the loop reference."""
    hub = TelemetryHub(sink=MemorySink()) if traced else None
    if hub is not None:
        hub.arm_profiler()
    engine = Engine(telemetry=hub)
    got = _order_log(engine, drive)
    assert got == _order_log(_LoopEngine(), drive)
    assert got  # non-trivial: the drive executed something
    if hub is not None:
        executed = hub.registry.counter("sim.events_executed").value
        assert executed == engine.executed_count


class TestBatchScheduling:
    def test_batch_consumes_consecutive_seqs_like_schedule_at(self):
        engine = Engine()
        first = engine.schedule_at(1.0, lambda: None)
        batch = engine.schedule_many([2.0, 3.0, 4.0], lambda: None)
        last = engine.schedule_at(5.0, lambda: None)
        seqs = [first.seq] + [e.seq for e in batch] + [last.seq]
        assert seqs == list(range(first.seq, first.seq + 5))

    def test_schedule_many_returns_events_in_input_order(self):
        engine = Engine()
        times = [3.0, 1.0, 2.0, 5.0, 4.0, 0.5, 6.0, 7.0]
        events = engine.schedule_many(times, lambda: None)
        assert [e.time for e in events] == times
        # Seqs are consumed consecutively in input order.
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)

    def test_per_entry_args_and_labels(self):
        engine = Engine()
        seen: list = []
        events = engine.schedule_many(
            [2.0, 1.0],
            seen.append,
            args_list=[("b",), ("a",)],
            labels=["second", "first"],
        )
        assert [e.label for e in events] == ["second", "first"]
        engine.run_until(3.0)
        assert seen == ["a", "b"]
        assert engine.executed_count == 2

    def test_length_mismatch_rejected(self):
        engine = Engine()
        with pytest.raises(SchedulingError):
            engine.schedule_many([1.0, 2.0], [lambda: None])
        with pytest.raises(SchedulingError):
            engine.schedule_many(
                [1.0] * 8, lambda: None, args_list=[(1,)] * 7
            )
        with pytest.raises(SchedulingError):
            engine.schedule_many([1.0] * 8, lambda: None, labels=["a"] * 7)
        assert engine.pending_count == 0  # nothing half-scheduled

    def test_past_times_rejected(self):
        engine = Engine()
        engine.run_until(2.0)
        with pytest.raises(SchedulingError):
            engine.schedule_at(1.0, lambda: None)
        with pytest.raises(SchedulingError):
            engine.schedule_many([3.0, 1.0] + [4.0] * 6, lambda: None)

    def test_pending_and_executed_counts(self):
        engine = Engine()
        engine.schedule_many([float(i) for i in range(10)], lambda: None)
        engine.schedule_at(0.5, lambda: None)
        assert engine.pending_count == 11
        engine.run_until(4.5)
        assert engine.executed_count == 6
        assert engine.pending_count == 5


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
class TestOrderEquivalence:
    def test_sorted_large_batches(self, traced):
        def drive(engine, log):
            for c in range(5):
                base = float(c)
                times = [base + i / 20.0 for i in range(16)]
                engine.schedule_many(
                    times,
                    [
                        (lambda i=c, j=j: log.append((i, j, engine.now)))
                        for j in range(16)
                    ],
                )
                engine.run_until(base + 1.0)

        assert_equivalent(drive, traced)

    def test_unsorted_batches(self, traced):
        def drive(engine, log):
            rng = np.random.default_rng(3)
            for c in range(5):
                base = float(c)
                times = [base + d for d in rng.uniform(0.0, 0.9, size=24)]
                engine.schedule_many(
                    times,
                    [
                        (lambda i=c, j=j: log.append((i, j, engine.now)))
                        for j in range(24)
                    ],
                )
                engine.run_until(base + 1.0)

        assert_equivalent(drive, traced)

    def test_batches_racing_single_events_and_priorities(self, traced):
        def drive(engine, log):
            rng = np.random.default_rng(11)
            for c in range(6):
                base = float(c)
                times = [base + d for d in rng.uniform(0.0, 0.9, size=12)]
                engine.schedule_many(
                    times,
                    [
                        (lambda i=c, j=j: log.append(("m", i, j, engine.now)))
                        for j in range(12)
                    ],
                )
                engine.schedule_at(
                    base + 0.45,
                    lambda i=c: log.append(("hi", i, engine.now)),
                    priority=-10,
                )
                engine.schedule_at(
                    base + 0.45, lambda i=c: log.append(("lo", i, engine.now))
                )
                engine.run_until(base + 1.0)

        assert_equivalent(drive, traced)

    def test_equal_times_resolve_by_priority_then_seq(self, traced):
        def drive(engine, log):
            times = [1.0] * 8
            engine.schedule_many(
                times,
                [(lambda j=j: log.append(("a", j))) for j in range(8)],
                priority=5,
            )
            engine.schedule_many(
                times,
                [(lambda j=j: log.append(("b", j))) for j in range(8)],
                priority=-5,
            )
            engine.run_until(2.0)

        assert_equivalent(drive, traced)
        log = _order_log(Engine(), drive)
        assert log == [("b", j) for j in range(8)] + [("a", j) for j in range(8)]

    def test_callbacks_scheduling_mid_run(self, traced):
        # A batch callback schedules new work between two batch entries;
        # the new event must run at its own time, not after the batch.
        def drive(engine, log):
            def spawn(tag):
                log.append((tag, engine.now))
                if tag % 3 == 0:
                    engine.schedule_at(
                        engine.now + 0.01,
                        lambda: log.append(("spawned", tag, engine.now)),
                    )

            times = [1.0 + i / 10.0 for i in range(12)]
            engine.schedule_many(
                times, [(lambda j=j: spawn(j)) for j in range(12)]
            )
            engine.run_until(5.0)

        assert_equivalent(drive, traced)
        log = _order_log(Engine(), drive)
        assert log[:3] == [(0, 1.0), ("spawned", 0, 1.01), (1, 1.1)]

    def test_cancellation_before_and_during_run(self, traced):
        def drive(engine, log):
            events = engine.schedule_many(
                [1.0 + i / 10.0 for i in range(12)],
                [(lambda j=j: log.append(j)) for j in range(12)],
            )
            events[3].cancel()
            events[7].cancel()

            # Cancel a later batch event from inside a callback.
            def cancel_ten():
                log.append("cancelling")
                events[10].cancel()

            engine.schedule_at(1.55, cancel_ten, priority=-1)
            engine.run_until(3.0)

        assert_equivalent(drive, traced)
        log = _order_log(Engine(), drive)
        assert log == [0, 1, 2, 4, 5, "cancelling", 6, 8, 9, 11]

    def test_interleaved_many_batches_and_singles(self, traced):
        def drive(engine, log):
            rng = np.random.default_rng(23)
            for c in range(4):
                base = float(c)
                for _ in range(3):
                    size = int(rng.integers(2, 20))
                    times = [
                        base + d for d in rng.uniform(0.0, 0.9, size=size)
                    ]
                    engine.schedule_many(
                        times,
                        [
                            (lambda t=round(t, 6): log.append(("m", t)))
                            for t in times
                        ],
                    )
                engine.schedule_at(
                    base + float(rng.uniform(0.0, 0.9)),
                    lambda i=c: log.append(("s", i, engine.now)),
                )
                engine.run_until(base + 1.0)

        assert_equivalent(drive, traced)


class TestExecutionApi:
    def test_step_and_run(self):
        engine = Engine()
        fired: list[float] = []
        engine.schedule_many(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            lambda: fired.append(engine.now),
        )
        assert engine.step() is True
        assert fired == [1.0]
        assert engine.run(max_events=3) == 3
        assert fired == [1.0, 2.0, 3.0, 4.0]
        assert engine.run() == 4
        assert engine.step() is False

    def test_peek_time_spans_batches_and_singles(self):
        engine = Engine()
        engine.schedule_many([2.0 + i / 10.0 for i in range(8)], lambda: None)
        assert engine.peek_time() == 2.0
        engine.schedule_at(1.5, lambda: None)
        assert engine.peek_time() == 1.5

    def test_drain_yields_remaining_batch_events_in_time_order(self):
        engine = Engine()
        engine.schedule_many(
            [5.0, 1.0, 3.0, 4.0, 2.0, 6.0, 8.0, 7.0],
            lambda: None,
            labels=[f"b{i}" for i in range(8)],
        )
        engine.schedule_at(0.5, lambda: None, label="s")
        engine.run_until(2.5)
        drained = [(e.time, e.label) for e in engine.drain()]
        assert drained == [
            (3.0, "b2"), (4.0, "b3"), (5.0, "b0"),
            (6.0, "b5"), (7.0, "b7"), (8.0, "b6"),
        ]
        assert engine.pending_count == 0

    def test_run_until_time_advances_even_when_idle(self):
        engine = Engine()
        engine.run_until(4.0)
        assert engine.now == 4.0
