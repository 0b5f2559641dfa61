"""Periodic task execution on the simulated cluster.

Each period the executor:

1. releases ``ds(T, c)`` tracks into stage 1;
2. for every stage, snapshots the stage's replica set ``PS(st)`` and
   submits one CPU job per replica, each processing ``1/|PS|`` of the
   stream (§3 property 6 — replicas share the data stream evenly);
3. when the last replica finishes (stage barrier), sends the
   inter-stage message burst: one message per *downstream* replica,
   each carrying that replica's share — exactly the message pattern the
   predictive algorithm prices in Figure 5 (``k+1`` messages of
   ``d/(k+1)`` payload);
4. records per-stage and end-to-end timing into
   :class:`~repro.runtime.records.PeriodRecord`.

Overload shedding
-----------------
Under severe overload a period's quadratic-demand stages can outlast
many periods, and without intervention backlogged jobs snowball (each
new release contends with the old ones, slowing everything further —
the real phenomenon, but one that also stops the monitor from ever
seeing a completed stage).  Real-time mission systems shed such work;
the executor aborts any period still in flight ``drop_factor`` periods
after its release, cancelling its outstanding jobs and counting it as a
missed deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cluster.network import Message
from repro.cluster.processor import Job
from repro.cluster.topology import System
from repro.errors import ConfigurationError
from repro.runtime.records import PeriodRecord, StageRecord
from repro.tasks.model import PeriodicTask
from repro.tasks.state import ReplicaAssignment

#: Event priority of task releases (after RM steps, which use -10).
RELEASE_PRIORITY = 0


@dataclass(frozen=True)
class ExecutorConfig:
    """Tunables of the execution model.

    Attributes
    ----------
    drop_factor:
        Periods still in flight this many periods after release are
        aborted (overload shedding).  Must be >= 1.
    noise_stream:
        Name of the RNG stream used for execution-time noise.
    use_node_clocks:
        When ``True``, stage timestamps are taken from the *local clock
        of the node involved* (the last-finishing replica's processor)
        instead of true simulation time — so the monitoring data lives
        on the imperfect "global time scale" the paper's clock-sync
        assumption (§3 property 12, [Mills95]) provides.  Off by
        default: with sync running the difference is sub-millisecond,
        but the robustness tests enable it with *desynchronized* clocks
        to measure how much timestamp error the RM loop tolerates.
    """

    drop_factor: float = 2.0
    noise_stream: str = "exec-noise"
    use_node_clocks: bool = False

    def __post_init__(self) -> None:
        if self.drop_factor < 1.0:
            raise ConfigurationError(
                f"drop_factor must be >= 1, got {self.drop_factor}"
            )


class _InFlight:
    """Bookkeeping for one released period."""

    __slots__ = ("record", "jobs", "done")

    def __init__(self, record: PeriodRecord) -> None:
        self.record = record
        self.jobs: list[tuple[str, Job]] = []  # (processor name, job)
        self.done = False

    def __getstate__(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)


class _StageBarrier:
    """Stage-completion barrier: fires when the last replica job finishes.

    Module-level (not a closure over ``_start_stage`` locals) so in-flight
    periods pickle for run snapshots.  Semantics are identical to the old
    nested ``job_done``: decrement, and on the last completion stamp the
    finishing node's clock and advance the pipeline.
    """

    __slots__ = ("executor", "flight", "subtask_index", "stage", "remaining")

    def __init__(
        self,
        executor: "PeriodicTaskExecutor",
        flight: _InFlight,
        subtask_index: int,
        stage: StageRecord,
        remaining: int,
    ) -> None:
        self.executor = executor
        self.flight = flight
        self.subtask_index = subtask_index
        self.stage = stage
        self.remaining = remaining

    def job_done(self, job: Job, t: float, name: str) -> None:
        self.remaining -= 1
        if self.remaining == 0 and not self.flight.done:
            self.stage.exec_finish_time = self.executor._stamp(name)
            self.executor._stage_finished(self.flight, self.subtask_index)

    def __getstate__(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)


class _ReplicaDone:
    """Per-replica ``on_complete`` adapter binding the replica's name."""

    __slots__ = ("barrier", "name")

    def __init__(self, barrier: _StageBarrier, name: str) -> None:
        self.barrier = barrier
        self.name = name

    def __call__(self, job: Job, t: float) -> None:
        self.barrier.job_done(job, t, self.name)

    def __getstate__(self) -> dict[str, object]:
        return {"barrier": self.barrier, "name": self.name}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.barrier = state["barrier"]
        self.name = state["name"]


class _DeliveryBarrier:
    """Message-burst barrier: starts the next stage after the last delivery."""

    __slots__ = ("executor", "flight", "next_index", "sent_at", "remaining")

    def __init__(
        self,
        executor: "PeriodicTaskExecutor",
        flight: _InFlight,
        next_index: int,
        sent_at: float,
        remaining: int,
    ) -> None:
        self.executor = executor
        self.flight = flight
        self.next_index = next_index
        self.sent_at = sent_at
        self.remaining = remaining

    def delivered(self, message: Message, t: float, receiver: str) -> None:
        self.remaining -= 1
        if self.remaining == 0 and not self.flight.done:
            # Monitoring sees the cross-node delay: receiver stamp minus
            # sender stamp (clock error included when node clocks are
            # enabled; never below zero).
            delay = max(0.0, self.executor._stamp(receiver) - self.sent_at)
            self.executor._start_stage(
                self.flight, self.next_index, message_in_delay=delay
            )

    def __getstate__(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)


class _MessageDone:
    """Per-receiver ``on_delivered`` adapter binding the receiver's name."""

    __slots__ = ("barrier", "receiver")

    def __init__(self, barrier: _DeliveryBarrier, receiver: str) -> None:
        self.barrier = barrier
        self.receiver = receiver

    def __call__(self, message: Message, t: float) -> None:
        self.barrier.delivered(message, t, self.receiver)

    def __getstate__(self) -> dict[str, object]:
        return {"barrier": self.barrier, "receiver": self.receiver}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.barrier = state["barrier"]
        self.receiver = state["receiver"]


class PeriodicTaskExecutor:
    """Drives one periodic task against the system.

    Parameters
    ----------
    system:
        The cluster to run on.
    task:
        The task definition.
    assignment:
        The live ``PS(st)`` map; the resource manager mutates it and the
        executor snapshots it at every stage start.
    workload:
        ``ds(T, c)``: maps period index to the number of tracks released.
    config:
        Execution-model tunables.
    on_period_complete:
        Optional callback ``(PeriodRecord) -> None`` fired at completion
        or abort.
    """

    def __init__(
        self,
        system: System,
        task: PeriodicTask,
        assignment: ReplicaAssignment,
        workload: Callable[[int], float],
        config: ExecutorConfig | None = None,
        on_period_complete: Callable[[PeriodRecord], None] | None = None,
    ) -> None:
        self.system = system
        self.task = task
        self.assignment = assignment
        self.workload = workload
        self.config = config if config is not None else ExecutorConfig()
        self.on_period_complete = on_period_complete
        self.rng: np.random.Generator = system.rng.stream(self.config.noise_stream)
        self.records: list[PeriodRecord] = []
        self.current_period_index = -1
        self.current_d_tracks = 0.0
        self._in_flight: dict[int, _InFlight] = {}

    # -- driving -----------------------------------------------------------------

    def start(self, n_periods: int, first_release: float = 0.0) -> None:
        """Schedule ``n_periods`` releases starting at ``first_release``."""
        if n_periods < 1:
            raise ConfigurationError(f"need at least one period, got {n_periods}")
        engine = self.system.engine
        period = self.task.period
        engine.schedule_many(
            [first_release + c * period for c in range(n_periods)],
            self._release,
            [(c,) for c in range(n_periods)],
            priority=RELEASE_PRIORITY,
            labels=f"{self.task.name}.release",
        )

    # -- release / stages -----------------------------------------------------------

    def _release(self, period_index: int) -> None:
        now = self.system.engine.now
        d_tracks = float(self.workload(period_index))
        if d_tracks < 0.0:
            raise ConfigurationError(
                f"workload for period {period_index} is negative: {d_tracks}"
            )
        self.current_period_index = period_index
        self.current_d_tracks = d_tracks
        record = PeriodRecord(
            period_index=period_index,
            release_time=now,
            d_tracks=d_tracks,
            deadline=self.task.deadline,
        )
        self.records.append(record)
        if d_tracks == 0.0:
            # Nothing to process: the period trivially completes.
            record.completion_time = now
            self._notify(record)
            return
        flight = _InFlight(record)
        self._in_flight[period_index] = flight
        self.system.engine.schedule(
            self.config.drop_factor * self.task.period,
            self._watchdog,
            period_index,
            label=f"{self.task.name}.watchdog",
        )
        self._start_stage(flight, 1, message_in_delay=0.0)

    def _stamp(self, processor_name: str) -> float:
        """A timestamp on the monitoring time scale.

        True simulation time by default; the hosting node's local clock
        when ``use_node_clocks`` is enabled (stage records then carry
        the bounded clock error the paper's sync assumption permits).
        """
        now = self.system.engine.now
        if not self.config.use_node_clocks:
            return now
        return self.system.clock_of(processor_name).local_time(now)

    def _start_stage(
        self, flight: _InFlight, subtask_index: int, message_in_delay: float
    ) -> None:
        if flight.done:
            return
        subtask = self.task.subtask(subtask_index)
        replicas = self.assignment.processors_of(subtask_index)
        stage = StageRecord(
            subtask_index=subtask_index,
            replica_count=len(replicas),
            start_time=self._stamp(replicas[0]),
            message_in_delay=message_in_delay,
        )
        flight.record.stages.append(stage)
        share = flight.record.d_tracks / len(replicas)
        barrier = _StageBarrier(self, flight, subtask_index, stage, len(replicas))

        for name in replicas:
            processor = self.system.processor(name)
            demand = subtask.service.demand(share, self.rng)
            job = processor.run_for(
                demand,
                kind="app",
                label=f"{self.task.name}.st{subtask_index}",
                on_complete=_ReplicaDone(barrier, name),
            )
            flight.jobs.append((name, job))

    def _stage_finished(self, flight: _InFlight, subtask_index: int) -> None:
        if subtask_index == self.task.n_subtasks:
            self._complete(flight)
            return
        self._send_messages(flight, subtask_index)

    def _send_messages(self, flight: _InFlight, subtask_index: int) -> None:
        """Send the burst feeding stage ``subtask_index + 1``."""
        next_index = subtask_index + 1
        message_spec = self.task.message(subtask_index)
        receivers = self.assignment.processors_of(next_index)
        senders = self.assignment.processors_of(subtask_index)
        share = flight.record.d_tracks / len(receivers)
        sent_at = self._stamp(senders[0])
        barrier = _DeliveryBarrier(self, flight, next_index, sent_at, len(receivers))

        for position, receiver in enumerate(receivers):
            sender = senders[position % len(senders)]
            self.system.network.send_bytes(
                message_spec.wire_payload_bytes(share, flight.record.d_tracks),
                source=sender,
                destination=receiver,
                label=f"{self.task.name}.m{subtask_index}",
                on_delivered=_MessageDone(barrier, receiver),
            )

    # -- completion / shedding ----------------------------------------------------------

    def _complete(self, flight: _InFlight) -> None:
        flight.done = True
        flight.record.completion_time = self.system.engine.now
        self._in_flight.pop(flight.record.period_index, None)
        telemetry = self.system.engine.telemetry
        if telemetry.enabled:
            telemetry.on_period_complete(
                self.system.engine.now, self.task.name, flight.record
            )
        self._notify(flight.record)

    def _watchdog(self, period_index: int) -> None:
        flight = self._in_flight.get(period_index)
        if flight is None or flight.done:
            return
        self._abort(flight)

    def _abort(self, flight: _InFlight) -> None:
        flight.done = True
        flight.record.aborted = True
        self._in_flight.pop(flight.record.period_index, None)
        for name, job in flight.jobs:
            if job.completion_time is None:
                self.system.processor(name).cancel_job(job)
        telemetry = self.system.engine.telemetry
        if telemetry.enabled:
            telemetry.on_period_abort(
                self.system.engine.now, self.task.name, flight.record
            )
        self._notify(flight.record)

    def _notify(self, record: PeriodRecord) -> None:
        if self.on_period_complete is not None:
            self.on_period_complete(record)

    # -- views for the monitor -------------------------------------------------------

    def completed_records(self) -> list[PeriodRecord]:
        """All records that have finished (completed or aborted)."""
        return [r for r in self.records if r.completed or r.aborted]

    def overdue_subtasks(self) -> set[int]:
        """Subtask indices whose stage is in flight past the period deadline.

        This is how the monitor detects "missed its individual deadline"
        for work that has not completed (e.g. the very first periods of a
        decreasing-ramp experiment, where an unreplicated stage may run
        for multiple periods).
        """
        now = self.system.engine.now
        overdue: set[int] = set()
        for flight in self._in_flight.values():
            if flight.record.overdue_at(now) and flight.record.stages:
                overdue.add(flight.record.stages[-1].subtask_index)
        return overdue

    @property
    def in_flight_count(self) -> int:
        """Number of periods currently executing."""
        return len(self._in_flight)
