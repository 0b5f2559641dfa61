"""The discrete-event simulation engine.

:class:`Engine` owns the simulation clock and the event calendar (a binary
heap).  Components schedule callbacks with :meth:`Engine.schedule` /
:meth:`Engine.schedule_at` and the experiment driver advances time with
:meth:`Engine.run_until` or :meth:`Engine.run`.

Design notes
------------
* The clock only moves forward; scheduling into the past raises
  :class:`~repro.errors.SchedulingError`.  Scheduling *at the current
  time* is allowed (zero-delay events) and runs after the current event,
  in FIFO order.
* Cancellation is lazy (cancelled events are skipped when popped), which
  keeps ``cancel`` O(1) — important for the processor model, which
  reschedules its next-completion event on every arrival.
* Determinism: at equal timestamps events run ordered by ``priority`` and
  then insertion sequence, so a simulation is a pure function of its
  inputs and RNG seeds.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from typing import Any, Callable, Iterator, Sequence

from repro.errors import SchedulingError
from repro.sim.events import Event, EventState
from repro.telemetry.hub import NULL_TELEMETRY, TelemetryHub

_PENDING = EventState.PENDING


class _Recurrence:
    """The self-rescheduling callback behind :meth:`Engine.every`.

    A module-level class (not a closure) so a recurring event on the
    calendar — and the stop handle held by its owner — survive snapshot
    pickling (:mod:`repro.recovery`) with identity intact.
    """

    __slots__ = ("engine", "interval_s", "callback", "args", "priority", "label",
                 "stopped", "event")

    def __init__(
        self,
        engine: "Engine",
        interval_s: float,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
        priority: int,
        label: str,
    ) -> None:
        self.engine = engine
        self.interval_s = interval_s
        self.callback = callback
        self.args = args
        self.priority = priority
        self.label = label
        self.stopped = False
        self.event: Event | None = None

    def fire(self) -> None:
        if self.stopped:
            return
        self.callback(*self.args)
        if not self.stopped:
            self.event = self.engine.schedule(
                self.interval_s, self.fire, priority=self.priority, label=self.label
            )

    def stop(self) -> None:
        self.stopped = True
        if self.event is not None:
            self.event.cancel()

    def __getstate__(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)


class Engine:
    """A deterministic discrete-event simulation engine.

    Parameters
    ----------
    start_time:
        Initial simulation clock value in seconds (default ``0.0``).
    telemetry:
        Optional :class:`~repro.telemetry.hub.TelemetryHub` receiving
        batch accounting after each run loop.  Defaults to the disabled
        :data:`~repro.telemetry.hub.NULL_TELEMETRY` singleton; the hot
        loops never touch it, only the post-loop accounting does, so no
        record is written per executed event.  Components reach the hub
        as ``engine.telemetry``.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        telemetry: TelemetryHub | None = None,
    ) -> None:
        self._now = float(start_time)
        self._heap: list[Event] = []
        self._seq = 0
        self._executed = 0
        self._running = False
        self.telemetry: TelemetryHub = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_count(self) -> int:
        """Number of events on the calendar (including cancelled ones)."""
        return len(self._heap)

    @property
    def executed_count(self) -> int:
        """Total number of events executed so far."""
        return self._executed

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        delay_s: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay_s`` seconds from now.

        Returns the :class:`~repro.sim.events.Event` handle, which may be
        cancelled while pending.
        """
        if delay_s < 0.0:
            raise SchedulingError(f"negative delay {delay_s!r} at t={self._now}")
        return self.schedule_at(
            self._now + delay_s, callback, *args, priority=priority, label=label
        )

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at the absolute time ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )
        self._seq += 1
        event = Event(time, self._seq, callback, args, priority=priority, label=label)
        heappush(self._heap, event)
        return event

    def schedule_many(
        self,
        times: Sequence[float],
        callbacks: Callable[..., Any] | Sequence[Callable[..., Any]],
        args_list: Sequence[tuple[Any, ...]] | None = None,
        *,
        priority: int = 0,
        labels: str | Sequence[str] = "",
    ) -> list[Event]:
        """Schedule one event per absolute time in ``times``.

        ``callbacks`` and ``labels`` are either one value shared by
        every entry or one value per entry; ``args_list`` supplies the
        positional arguments per entry (default: none).  Sequence
        numbers are consumed consecutively in input order, so the call
        is observationally identical to a loop over :meth:`schedule_at`.
        """
        n = len(times)
        cbs = callbacks if isinstance(callbacks, (list, tuple)) else [callbacks] * n
        labs = labels if isinstance(labels, (list, tuple)) else [labels] * n
        argss = args_list if args_list is not None else [()] * n
        if len(cbs) != n or len(labs) != n or len(argss) != n:
            raise SchedulingError(
                f"schedule_many: {n} times but {len(cbs)} callbacks, "
                f"{len(argss)} args, {len(labs)} labels"
            )
        return [
            self.schedule_at(t, cb, *a, priority=priority, label=lb)
            for t, cb, a, lb in zip(times, cbs, argss, labs)
        ]

    # -- execution ----------------------------------------------------------

    def _pop_next(self) -> Event | None:
        """Pop the earliest pending event, discarding cancelled ones."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.pending:
                return event
        return None

    def peek_time(self) -> float | None:
        """Time of the next pending event, or ``None`` if the calendar is empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        """Execute the single next event.

        Returns ``True`` if an event was executed, ``False`` if the
        calendar was empty.
        """
        event = self._pop_next()
        if event is None:
            return False
        self._now = event.time
        self._executed += 1
        event._execute()
        return True

    def run_until(self, until: float) -> None:
        """Run events with ``time <= until``, then set the clock to ``until``.

        The clock always lands exactly on ``until`` so that periodic
        drivers observing :attr:`now` after the call see the boundary time.
        """
        if until < self._now:
            raise SchedulingError(f"run_until({until}) is before now={self._now}")
        self._running = True
        # Hot loop: the heap and heappop are hoisted to locals, and
        # :meth:`step`'s body is inlined (one method call per event would
        # dominate the figure sweeps' run time).
        heap = self._heap
        pop = heappop
        executed_before = self._executed
        # Profiler attribution is per run_until batch, never per event.
        profiler = self.telemetry.profiler if self.telemetry.enabled else None
        handle = profiler.begin("engine.run") if profiler is not None else 0
        try:
            while heap:
                event = heap[0]
                if event._state is not _PENDING:
                    pop(heap)
                    continue
                now = event.time
                if now > until:
                    break
                pop(heap)
                self._now = now
                self._executed += 1
                event._execute()
        finally:
            self._running = False
        self._now = until
        # Batch accounting keeps the per-event cost zero when disabled.
        telemetry = self.telemetry
        if telemetry.enabled:
            if profiler is not None:
                profiler.end(handle, events=self._executed - executed_before)
            telemetry.on_engine_run(until, self._executed - executed_before)

    def run(self, max_events: int | None = None) -> int:
        """Run until the calendar is exhausted (or ``max_events`` executed).

        Returns the number of events executed by this call.
        """
        executed = 0
        self._running = True
        # Same inlined hot loop as :meth:`run_until`, without a time bound.
        heap = self._heap
        pop = heappop
        profiler = self.telemetry.profiler if self.telemetry.enabled else None
        handle = profiler.begin("engine.run") if profiler is not None else 0
        try:
            while heap and (max_events is None or executed < max_events):
                event = pop(heap)
                if event._state is not _PENDING:
                    continue
                self._now = event.time
                self._executed += 1
                event._execute()
                executed += 1
        finally:
            self._running = False
        telemetry = self.telemetry
        if telemetry.enabled:
            if profiler is not None:
                profiler.end(handle, events=executed)
            telemetry.on_engine_run(self._now, executed)
        return executed

    # -- periodic helpers -----------------------------------------------------

    def every(
        self,
        interval_s: float,
        callback: Callable[..., Any],
        *args: Any,
        start_delay: float | None = None,
        priority: int = 0,
        label: str = "",
    ) -> Callable[[], None]:
        """Run ``callback`` every ``interval_s`` seconds until cancelled.

        Returns a zero-argument function that stops the recurrence.  The
        first firing happens after ``start_delay`` (default: ``interval_s``).
        """
        if interval_s <= 0.0:
            raise SchedulingError(f"interval must be positive, got {interval_s}")
        recurrence = _Recurrence(self, interval_s, callback, args, priority, label)
        first = interval_s if start_delay is None else start_delay
        recurrence.event = self.schedule(
            first, recurrence.fire, priority=priority, label=label
        )
        return recurrence.stop

    def drain(self) -> Iterator[Event]:
        """Cancel and yield all pending events (mainly for tests/teardown)."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.pending:
                event.cancel()
                yield event
