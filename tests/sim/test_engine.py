"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.sim.engine import Engine


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_custom_start_time(self):
        assert Engine(start_time=5.0).now == 5.0

    def test_schedule_returns_pending_event(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        assert event.pending
        assert event.time == 1.0

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SchedulingError):
            engine.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.run_until(2.0)
        with pytest.raises(SchedulingError):
            engine.schedule_at(1.0, lambda: None)

    def test_zero_delay_allowed(self):
        engine = Engine()
        fired = []
        engine.schedule(0.0, lambda: fired.append(engine.now))
        engine.run_until(0.0)
        assert fired == [0.0]

    def test_pending_count(self):
        engine = Engine()
        for i in range(5):
            engine.schedule(float(i + 1), lambda: None)
        assert engine.pending_count == 5


class TestExecutionOrder:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(3.0, lambda: order.append(3))
        engine.schedule(1.0, lambda: order.append(1))
        engine.schedule(2.0, lambda: order.append(2))
        engine.run()
        assert order == [1, 2, 3]

    def test_fifo_at_equal_times(self):
        engine = Engine()
        order = []
        for i in range(10):
            engine.schedule(1.0, order.append, i)
        engine.run()
        assert order == list(range(10))

    def test_priority_breaks_ties(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, order.append, "late", priority=5)
        engine.schedule(1.0, order.append, "early", priority=-5)
        engine.schedule(1.0, order.append, "mid", priority=0)
        engine.run()
        assert order == ["early", "mid", "late"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]

    def test_callback_args_passed(self):
        engine = Engine()
        got = []
        engine.schedule(1.0, lambda a, b: got.append((a, b)), 1, "x")
        engine.run()
        assert got == [(1, "x")]


class TestRunUntil:
    def test_stops_at_boundary(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, 1)
        engine.schedule(2.0, fired.append, 2)
        engine.schedule(3.0, fired.append, 3)
        engine.run_until(2.0)
        assert fired == [1, 2]
        assert engine.now == 2.0

    def test_clock_lands_exactly_on_until(self):
        engine = Engine()
        engine.run_until(7.25)
        assert engine.now == 7.25

    def test_run_until_past_rejected(self):
        engine = Engine()
        engine.run_until(5.0)
        with pytest.raises(SchedulingError):
            engine.run_until(4.0)

    def test_events_scheduled_during_run_execute(self):
        engine = Engine()
        fired = []

        def first():
            fired.append("first")
            engine.schedule(0.5, lambda: fired.append("chained"))

        engine.schedule(1.0, first)
        engine.run_until(2.0)
        assert fired == ["first", "chained"]

    def test_event_exactly_at_boundary_runs(self):
        engine = Engine()
        fired = []
        engine.schedule(2.0, fired.append, True)
        engine.run_until(2.0)
        assert fired == [True]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, fired.append, 1)
        assert event.cancel()
        engine.run()
        assert fired == []

    def test_double_cancel_returns_false(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        assert event.cancel()
        assert not event.cancel()

    def test_cancel_after_execution_returns_false(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        engine.run()
        assert not event.cancel()

    def test_peek_time_skips_cancelled(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        event.cancel()
        assert engine.peek_time() == 2.0

    def test_drain_cancels_everything(self):
        engine = Engine()
        for i in range(4):
            engine.schedule(float(i + 1), lambda: None)
        drained = list(engine.drain())
        assert len(drained) == 4
        assert engine.peek_time() is None


class TestStepAndRun:
    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_step_executes_one_event(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, 1)
        engine.schedule(2.0, fired.append, 2)
        assert engine.step()
        assert fired == [1]

    def test_run_returns_executed_count(self):
        engine = Engine()
        for i in range(7):
            engine.schedule(float(i + 1), lambda: None)
        assert engine.run() == 7

    def test_run_max_events(self):
        engine = Engine()
        for i in range(10):
            engine.schedule(float(i + 1), lambda: None)
        assert engine.run(max_events=3) == 3
        assert engine.executed_count == 3


class TestEvery:
    def test_periodic_firing(self):
        engine = Engine()
        fired = []
        engine.every(1.0, lambda: fired.append(engine.now))
        engine.run_until(3.5)
        assert fired == [1.0, 2.0, 3.0]

    def test_start_delay(self):
        engine = Engine()
        fired = []
        engine.every(1.0, lambda: fired.append(engine.now), start_delay=0.0)
        engine.run_until(2.5)
        assert fired == [0.0, 1.0, 2.0]

    def test_stop_halts_recurrence(self):
        engine = Engine()
        fired = []
        stop = engine.every(1.0, lambda: fired.append(engine.now))
        engine.run_until(2.0)
        stop()
        engine.run_until(10.0)
        assert fired == [1.0, 2.0]

    def test_non_positive_interval_rejected(self):
        engine = Engine()
        with pytest.raises(SchedulingError):
            engine.every(0.0, lambda: None)

    def test_stop_from_within_callback(self):
        engine = Engine()
        fired = []
        holder = {}

        def tick():
            fired.append(engine.now)
            if len(fired) == 2:
                holder["stop"]()

        holder["stop"] = engine.every(1.0, tick)
        engine.run_until(10.0)
        assert fired == [1.0, 2.0]


class TestTracing:
    def test_determinism_same_seeded_program(self):
        def program():
            engine = Engine()
            out = []
            engine.schedule(1.0, out.append, "a")
            engine.schedule(1.0, out.append, "b", priority=-1)
            engine.schedule(0.5, out.append, "c")
            engine.run()
            return out

        assert program() == program() == ["c", "b", "a"]
