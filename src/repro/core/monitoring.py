"""Run-time monitoring and candidate selection (paper §4.1, Figure 1 box 1).

The monitor inspects recent per-stage timing records and classifies each
*replicable* subtask:

* **REPLICATE** — its recent mean stage latency leaves less than
  ``slack_fraction`` of the stage budget as slack, or it missed its
  individual deadline outright, or its stage is in flight and already
  overdue (the paper's "subtasks that miss their individual deadlines
  are also identified as candidates");
* **SHUTDOWN** — it holds more than one replica and its slack exceeds
  ``shutdown_slack_fraction`` of the budget ("subtasks [that] exhibit
  very high slack values");
* **OK** — otherwise.

Averaging over a short window of periods provides the hysteresis that
keeps one noisy measurement from flapping the allocation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.deadlines import DeadlineAssignment
from repro.errors import ConfigurationError
from repro.runtime.records import PeriodRecord
from repro.tasks.model import PeriodicTask
from repro.tasks.state import ReplicaAssignment
from repro.telemetry.hub import TelemetryHub


class MonitorAction(enum.Enum):
    """Classification of a subtask by the monitor."""

    OK = "ok"
    REPLICATE = "replicate"
    SHUTDOWN = "shutdown"


@dataclass(frozen=True)
class SubtaskVerdict:
    """The monitor's judgement of one replicable subtask."""

    subtask_index: int
    action: MonitorAction
    mean_stage_latency: float | None
    budget: float
    slack: float | None
    observed_periods: int
    overdue: bool


@dataclass(frozen=True)
class MonitorReport:
    """All verdicts from one monitoring pass."""

    time: float
    verdicts: tuple[SubtaskVerdict, ...] = field(default_factory=tuple)

    def candidates(self, action: MonitorAction) -> list[SubtaskVerdict]:
        """Verdicts matching ``action``."""
        return [v for v in self.verdicts if v.action is action]


class RuntimeMonitor:
    """Classifies replicable subtasks from recent timing records.

    Parameters
    ----------
    task:
        The monitored task.
    slack_fraction:
        Minimum slack, as a fraction of the stage budget, below which a
        subtask becomes a replication candidate (paper: 0.2).
    shutdown_slack_fraction:
        Slack fraction above which excess replicas are shut down.
    window:
        Number of most recent finished periods averaged per verdict.
    telemetry:
        Optional :class:`~repro.telemetry.hub.TelemetryHub`; every
        monitoring pass reports its verdicts to it (verdict counters and
        the open decision span) when enabled.
    max_record_age_s:
        Optional staleness bound (hardened mode, see
        :class:`repro.core.hardening.HardeningConfig`): records whose
        resolution time — completion, or release when a record never
        completed — is older than this are dropped from the averaging
        window instead of silently trusted.  ``None`` (default) keeps
        every record.
    """

    def __init__(
        self,
        task: PeriodicTask,
        slack_fraction: float = 0.2,
        shutdown_slack_fraction: float = 0.6,
        window: int = 3,
        telemetry: TelemetryHub | None = None,
        max_record_age_s: float | None = None,
    ) -> None:
        if not 0.0 < slack_fraction < 1.0:
            raise ConfigurationError(
                f"slack_fraction must be in (0, 1), got {slack_fraction}"
            )
        if not slack_fraction < shutdown_slack_fraction < 1.0:
            raise ConfigurationError(
                "shutdown_slack_fraction must lie in (slack_fraction, 1), "
                f"got {shutdown_slack_fraction}"
            )
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if max_record_age_s is not None and max_record_age_s <= 0.0:
            raise ConfigurationError(
                f"max_record_age_s must be positive, got {max_record_age_s}"
            )
        self.max_record_age_s = max_record_age_s
        self.task = task
        self.slack_fraction = float(slack_fraction)
        self.shutdown_slack_fraction = float(shutdown_slack_fraction)
        self.window = int(window)
        self.telemetry = telemetry

    def classify(
        self,
        now: float,
        records: list[PeriodRecord],
        deadlines: DeadlineAssignment,
        assignment: ReplicaAssignment,
        overdue_subtasks: set[int] = frozenset(),
    ) -> MonitorReport:
        """One monitoring pass over the most recent records.

        Parameters
        ----------
        now:
            Current time (for the report timestamp).
        records:
            Finished period records, oldest first; only the trailing
            ``window`` are used.
        deadlines:
            Current per-stage budgets.
        assignment:
            Current replica placement (for the shutdown precondition).
        overdue_subtasks:
            Stages currently in flight past the period deadline (from
            :meth:`repro.runtime.executor.PeriodicTaskExecutor.overdue_subtasks`).
        """
        if self.max_record_age_s is not None:
            horizon = now - self.max_record_age_s
            records = [
                record
                for record in records
                if (
                    record.completion_time
                    if record.completion_time is not None
                    else record.release_time
                )
                >= horizon
            ]
        recent = records[-self.window :]
        verdicts: list[SubtaskVerdict] = []
        for subtask in self.task.subtasks:
            if not subtask.replicable:
                continue
            budget = deadlines.stage_budget(subtask.index)
            latencies = [
                stage.stage_latency
                for record in recent
                for stage in [record.stage(subtask.index)]
                if stage is not None and stage.stage_latency is not None
            ]
            overdue = subtask.index in overdue_subtasks
            mean_latency = (
                sum(latencies) / len(latencies) if latencies else None
            )
            action = MonitorAction.OK
            slack: float | None = None
            if mean_latency is not None:
                slack = budget - mean_latency
                if slack < self.slack_fraction * budget:
                    action = MonitorAction.REPLICATE
                elif (
                    slack > self.shutdown_slack_fraction * budget
                    and assignment.replica_count(subtask.index) > 1
                ):
                    action = MonitorAction.SHUTDOWN
            if overdue:
                # An in-flight stage already past the deadline trumps any
                # stale average.
                action = MonitorAction.REPLICATE
            verdicts.append(
                SubtaskVerdict(
                    subtask_index=subtask.index,
                    action=action,
                    mean_stage_latency=mean_latency,
                    budget=budget,
                    slack=slack,
                    observed_periods=len(latencies),
                    overdue=overdue,
                )
            )
        report = MonitorReport(time=now, verdicts=tuple(verdicts))
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.on_monitor_report(now, report)
        return report
