"""CPU model: a single processor with round-robin / processor-sharing service.

The paper's testbed runs a round-robin scheduler with a 1 ms time slice
(Table 1).  Simulating every quantum of a 1 s period is needlessly slow,
and RR with a quantum far smaller than job service times converges to
**processor sharing** (PS): each of the ``n`` active jobs progresses at
rate ``1/n``.  :class:`Processor` therefore implements two disciplines:

* :attr:`Discipline.PROCESSOR_SHARING` (default) — exact event-driven PS.
  On every arrival/departure the remaining demands are aged by
  ``elapsed / n`` and the next completion is rescheduled.  Cost is
  O(active jobs) per state change.
* :attr:`Discipline.ROUND_ROBIN` — exact quantum-by-quantum RR with a
  configurable time slice.  Used in tests and the processor-model
  ablation bench to bound the PS approximation error.

Utilization ``ut(p, t)`` (paper §3, property 13) is the busy fraction of
the trailing ``utilization_window`` seconds, provided by
:class:`~repro.cluster.metering.UtilizationMeter`.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable

from repro.cluster.metering import UtilizationMeter
from repro.errors import ClusterError
from repro.sim.counters import IdCounter
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.units import MS

_job_ids = IdCounter(1)


class Discipline(enum.Enum):
    """CPU scheduling discipline."""

    PROCESSOR_SHARING = "ps"
    ROUND_ROBIN = "rr"


class Job:
    """A unit of CPU work submitted to a :class:`Processor`.

    Attributes
    ----------
    demand:
        Total CPU seconds required.
    remaining:
        CPU seconds still to be served (kept current only at state-change
        instants in PS mode).
    kind:
        Free-form tag (``"app"``, ``"background"``, ``"profile"``), used by
        tracing and by tests.
    on_complete:
        Callback ``(job, completion_time)`` invoked when the job finishes.
    """

    __slots__ = (
        "job_id",
        "demand",
        "remaining",
        "kind",
        "label",
        "on_complete",
        "arrival_time",
        "completion_time",
    )

    def __init__(
        self,
        demand: float,
        kind: str = "app",
        label: str = "",
        on_complete: Callable[["Job", float], None] | None = None,
    ) -> None:
        if demand <= 0.0:
            raise ClusterError(f"job demand must be positive, got {demand}")
        self.job_id = next(_job_ids)
        self.demand = float(demand)
        self.remaining = float(demand)
        self.kind = kind
        self.label = label
        self.on_complete = on_complete
        self.arrival_time: float | None = None
        self.completion_time: float | None = None

    @property
    def latency(self) -> float:
        """Sojourn time (completion minus arrival); raises if not finished."""
        if self.arrival_time is None or self.completion_time is None:
            raise ClusterError(f"job {self.job_id} has not completed")
        return self.completion_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Job {self.job_id} kind={self.kind} demand={self.demand:.6f} "
            f"remaining={self.remaining:.6f}>"
        )


class Processor:
    """One homogeneous processor of the distributed system.

    Parameters
    ----------
    engine:
        The discrete-event engine driving this processor.
    name:
        Identifier, e.g. ``"p1"``.
    discipline:
        PS (default) or quantum-level RR.
    quantum:
        RR time slice in seconds (Table 1: 1 ms).  Ignored under PS.
    utilization_window:
        Trailing window (seconds) over which ``ut(p, t)`` is computed.
    speed:
        Service-rate multiplier relative to the reference node whose
        demands the ground-truth models describe (1.0 = Table 1's
        homogeneous baseline).  A job of demand ``w`` running alone
        finishes in ``w / speed`` wall seconds.  The paper assumes
        homogeneity; heterogeneous speeds exist for the extension study
        probing how the (speed-blind) eq. 3 forecasts degrade.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        discipline: Discipline = Discipline.PROCESSOR_SHARING,
        quantum: float = 1.0 * MS,
        utilization_window: float = 5.0,
        speed: float = 1.0,
    ) -> None:
        if quantum <= 0.0:
            raise ClusterError(f"quantum must be positive, got {quantum}")
        if speed <= 0.0:
            raise ClusterError(f"speed must be positive, got {speed}")
        self.engine = engine
        self.name = name
        self.speed = float(speed)
        self.discipline = discipline
        self.quantum = float(quantum)
        self.utilization_window = float(utilization_window)
        self.meter = UtilizationMeter(max_window=max(utilization_window, 30.0))
        self.completed_jobs = 0
        self.failed = False
        self.failure_count = 0
        #: Optional sensor-fault transform applied to every utilization
        #: reading (chaos injection: stale/corrupted monitor inputs).
        #: The meter itself stays truthful — only the *reported* value
        #: is transformed, so measured experiment metrics are unaffected.
        self.reading_fault: Callable[[float], float] | None = None
        # PS state
        self._active: dict[int, Job] = {}
        self._last_update = engine.now
        self._completion_event: Event | None = None
        # RR state
        self._rr_queue: deque[Job] = deque()
        self._rr_current: Job | None = None
        self._rr_event: Event | None = None

    # -- public API -------------------------------------------------------

    def submit(self, job: Job) -> Job:
        """Add a job to this processor's run queue.

        Submitting to a **failed** processor is accepted but the job
        will never complete (the node is dark; the sender cannot know) —
        the overload watchdog and the monitor's overdue detection handle
        the consequences, exactly as they would for a real silent crash.
        """
        job.arrival_time = self.engine.now
        if self.failed:
            return job
        if self.discipline is Discipline.PROCESSOR_SHARING:
            self._ps_arrive(job)
        else:
            self._rr_arrive(job)
        return job

    # -- failure injection ------------------------------------------------------

    def fail(self) -> int:
        """Crash the processor: all in-flight jobs are lost (no callbacks).

        Returns the number of jobs lost.  Idempotent while failed.
        """
        if self.failed:
            return 0
        self.failed = True
        self.failure_count += 1
        lost = list(self.active_jobs())
        for job in lost:
            self.cancel_job(job)
        telemetry = self.engine.telemetry
        if telemetry.enabled:
            telemetry.trace(
                self.engine.now, "failure", f"{self.name}.fail", {"lost": len(lost)}
            )
        return len(lost)

    def recover(self) -> None:
        """Bring the processor back (empty queue, meter keeps history)."""
        if not self.failed:
            return
        self.failed = False
        telemetry = self.engine.telemetry
        if telemetry.enabled:
            telemetry.trace(self.engine.now, "failure", f"{self.name}.recover", {})

    def run_for(
        self,
        demand: float,
        kind: str = "app",
        label: str = "",
        on_complete: Callable[[Job, float], None] | None = None,
    ) -> Job:
        """Convenience: create and submit a job of ``demand`` CPU seconds."""
        return self.submit(Job(demand, kind=kind, label=label, on_complete=on_complete))

    def cancel_job(self, job: Job) -> bool:
        """Remove a job from the processor without completing it.

        Used by the executor's overload-shedding path (aborting periods
        that have fallen hopelessly behind).  Returns ``True`` if the job
        was present and removed; its completion callback never fires.
        """
        if self.discipline is Discipline.PROCESSOR_SHARING:
            self._ps_age()
            if self._active.pop(job.job_id, None) is None:
                return False
            if not self._active:
                self.meter.set_busy(self.engine.now, False)
            self._ps_reschedule()
            return True
        # Round-robin: remove from the queue, or drop the running slice.
        for queued in list(self._rr_queue):
            if queued.job_id == job.job_id:
                self._rr_queue.remove(queued)
                return True
        if self._rr_current is not None and self._rr_current.job_id == job.job_id:
            if self._rr_event is not None:
                self._rr_event.cancel()
            self._rr_current = None
            self._rr_dispatch()
            return True
        return False

    def utilization(self, now: float | None = None, window: float | None = None) -> float:
        """``ut(p, t)``: busy fraction over the trailing window."""
        t = self.engine.now if now is None else now
        w = self.utilization_window if window is None else window
        reading = self.meter.utilization(t, w)
        if self.reading_fault is not None:
            reading = self.reading_fault(reading)
        return reading

    @property
    def active_count(self) -> int:
        """Number of jobs currently in service or queued."""
        if self.discipline is Discipline.PROCESSOR_SHARING:
            return len(self._active)
        return len(self._rr_queue) + (1 if self._rr_current is not None else 0)

    @property
    def is_busy(self) -> bool:
        """Whether any job is present."""
        return self.active_count > 0

    def active_jobs(self) -> list[Job]:
        """Snapshot of jobs currently present (any discipline)."""
        if self.discipline is Discipline.PROCESSOR_SHARING:
            self._ps_age()
            return list(self._active.values())
        jobs = list(self._rr_queue)
        if self._rr_current is not None:
            jobs.insert(0, self._rr_current)
        return jobs

    # -- processor sharing ---------------------------------------------------

    def _ps_arrive(self, job: Job) -> None:
        self._ps_age()
        if not self._active:
            self.meter.set_busy(self.engine.now, True)
        self._active[job.job_id] = job
        self._ps_reschedule()

    def _ps_age(self) -> None:
        """Advance every active job's remaining demand to the current time."""
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed > 0.0 and self._active:
            served = elapsed * self.speed / len(self._active)
            for job in self._active.values():
                job.remaining -= served
        self._last_update = now

    def _ps_reschedule(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._active:
            return
        shortest = min(self._active.values(), key=lambda j: (j.remaining, j.job_id))
        # Numerical guard: aging can leave a tiny negative remainder.
        delay = max(0.0, shortest.remaining * len(self._active) / self.speed)
        self._completion_event = self.engine.schedule(
            delay, self._ps_complete, shortest.job_id, label=f"{self.name}.ps-done"
        )

    def _ps_complete(self, job_id: int) -> None:
        self._ps_age()
        job = self._active.pop(job_id, None)
        if job is None:  # stale event; a newer reschedule superseded it
            return
        job.remaining = 0.0
        self._finish(job)
        if not self._active:
            self.meter.set_busy(self.engine.now, False)
        self._ps_reschedule()

    # -- quantum round-robin ----------------------------------------------------

    def _rr_arrive(self, job: Job) -> None:
        self._rr_queue.append(job)
        if self._rr_current is None:
            self.meter.set_busy(self.engine.now, True)
            self._rr_dispatch()

    def _rr_dispatch(self) -> None:
        if not self._rr_queue:
            self._rr_current = None
            self.meter.set_busy(self.engine.now, False)
            return
        job = self._rr_queue.popleft()
        self._rr_current = job
        # A wall-clock quantum serves quantum*speed units of demand.
        work = min(self.quantum * self.speed, job.remaining)
        self._rr_event = self.engine.schedule(
            work / self.speed,
            self._rr_slice_end,
            job,
            work,
            label=f"{self.name}.rr-slice",
        )

    def _rr_slice_end(self, job: Job, slice_len: float) -> None:
        job.remaining -= slice_len
        self._rr_current = None
        if job.remaining <= 1e-12:
            job.remaining = 0.0
            self._finish(job)
        else:
            self._rr_queue.append(job)
        self._rr_dispatch()

    # -- shared ---------------------------------------------------------------

    def _finish(self, job: Job) -> None:
        job.completion_time = self.engine.now
        self.completed_jobs += 1
        telemetry = self.engine.telemetry
        if telemetry.enabled:
            telemetry.on_job_complete(self.engine.now, self.name, job)
        if job.on_complete is not None:
            job.on_complete(job, self.engine.now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Processor {self.name} {self.discipline.value} "
            f"active={self.active_count}>"
        )
