"""The adaptive resource manager — the control loop of Figure 1.

Once per task period (just *before* the next release, so a new
allocation takes effect immediately) the manager:

1. reads the executor's finished-period records and overdue in-flight
   stages;
2. runs the :class:`~repro.core.monitoring.RuntimeMonitor` to classify
   every replicable subtask;
3. bundles every REPLICATE candidate into one cycle-scoped
   :class:`~repro.core.allocation.AllocationContext` and hands it to the
   configured :class:`~repro.core.allocation.Allocator` (the
   per-candidate policies — predictive Figure 5, non-predictive
   Figure 7 — inherit the candidate loop from
   :class:`~repro.core.allocation.CandidatePolicyAdapter`); each
   SHUTDOWN candidate goes, with the same context, to the shutdown
   strategy (Figure 6's LIFO de-allocation by default);
4. re-assigns the EQF deadlines whenever the placement changed (§4.1:
   "at each time a resource management action ... is taken, the subtask
   deadlines are re-assigned"), feeding the estimator with *current*
   conditions (per-replica data shares, mean observed utilization);
5. appends an :class:`RMEvent` to its history — the experiment metrics
   derive the "average number of subtask replicas" from these samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.topology import System
from repro.core.allocation import (
    AllocationContext,
    AllocationOutcome,
    Allocator,
    check_allocator,
)
from repro.core.deadlines import DeadlineAssignment, assign_deadlines
from repro.core.hardening import (
    AllocationBackoff,
    ForecastCircuitBreaker,
    HardeningConfig,
    PlacementGuard,
    sanitize_reading,
)
from repro.core.monitoring import MonitorAction, MonitorReport, RuntimeMonitor
from repro.core.nonpredictive import NonPredictivePolicy
from repro.core.shutdown import LifoShutdown, ShutdownStrategy
from repro.errors import ConfigurationError
from repro.regression.estimator import TimingEstimator
from repro.runtime.executor import PeriodicTaskExecutor
from repro.tasks.state import ReplicaAssignment

#: RM steps run before releases that share their timestamp.
RM_PRIORITY = -10


@dataclass(frozen=True)
class RMConfig:
    """Tunables of the resource-management loop.

    Attributes
    ----------
    slack_fraction:
        Desired slack on stage budgets, as a fraction (paper: 0.2).
        Used by both the monitor's replicate rule and Figure 5's ``sl``.
    shutdown_slack_fraction:
        Slack fraction above which replicas are shut down.
    monitor_window:
        Periods averaged per monitoring verdict.
    deadline_strategy:
        Budget decomposition (see :mod:`repro.core.deadlines`).
    initial_d_tracks:
        ``dinit``: the data size assumed for the initial deadline
        assignment (before anything has been observed).
    initial_utilization:
        ``uinit``: the utilization assumed initially.
    deadline_reference:
        What workload the per-stage budgets are derived from when
        deadlines are re-assigned after an RM action.

        ``"initial"`` (default, the paper's §4.1 scheme): always the
        reference conditions ``(dinit, uinit)`` — budgets are a stable
        decomposition of the end-to-end deadline, refreshed only through
        the current mean utilization.

        ``"current"``: the current period's workload split across the
        current replica sets.  This makes budgets track whatever the
        allocation currently achieves, which is self-referential — after
        every replication the budget shrinks to match, so the subtask is
        flagged again and allocation creeps to the maximum.  Kept for
        the ablation study that demonstrates exactly that failure mode.
    """

    slack_fraction: float = 0.2
    shutdown_slack_fraction: float = 0.6
    monitor_window: int = 3
    deadline_strategy: str = "sequential_eqf"
    initial_d_tracks: float = 500.0
    initial_utilization: float = 0.1
    deadline_reference: str = "initial"

    def __post_init__(self) -> None:
        if self.deadline_reference not in ("initial", "current"):
            raise ConfigurationError(
                f"deadline_reference must be 'initial' or 'current', got "
                f"{self.deadline_reference!r}"
            )
        if self.initial_d_tracks <= 0.0:
            raise ConfigurationError(
                f"initial_d_tracks must be positive, got {self.initial_d_tracks}"
            )
        if not 0.0 <= self.initial_utilization <= 1.0:
            raise ConfigurationError(
                f"initial_utilization must be in [0, 1], got "
                f"{self.initial_utilization}"
            )


@dataclass(frozen=True)
class RMEvent:
    """One manager step's outcome (the replica-history sample)."""

    time: float
    report: MonitorReport
    outcomes: tuple[AllocationOutcome, ...]
    shutdowns: tuple[tuple[int, str], ...]  # (subtask index, processor)
    total_replicas: int
    placement: dict[int, tuple[str, ...]] = field(compare=False, default_factory=dict)
    #: Failure handling this step: (subtask index, dead processor,
    #: migration target or None when surviving replicas absorbed it).
    recoveries: tuple[tuple[int, str, str | None], ...] = ()
    #: Name of the policy that actually ran this step (the hardened
    #: loop's circuit breaker may substitute the fallback policy).
    policy_name: str = ""

    @property
    def acted(self) -> bool:
        """Whether this step changed the placement."""
        return (
            bool(self.shutdowns)
            or bool(self.recoveries)
            or any(o.changed for o in self.outcomes)
        )


class AdaptiveResourceManager:
    """Periodic monitoring + adaptation driver for one task."""

    def __init__(
        self,
        system: System,
        executor: PeriodicTaskExecutor,
        estimator: TimingEstimator,
        policy: Allocator,
        config: RMConfig | None = None,
        shutdown_strategy: ShutdownStrategy | None = None,
        total_workload_fn: "Callable[[], float] | None" = None,
        hardening: HardeningConfig | None = None,
        fallback_policy: Allocator | None = None,
    ) -> None:
        self.system = system
        self.executor = executor
        self.task = executor.task
        self.assignment: ReplicaAssignment = executor.assignment
        self.estimator = estimator
        self.policy: Allocator = check_allocator(policy)
        self.config = config if config is not None else RMConfig()
        self.shutdown_strategy: ShutdownStrategy = (
            shutdown_strategy if shutdown_strategy is not None else LifoShutdown()
        )
        # Degraded-input defenses (repro.core.hardening).  With
        # ``hardening=None`` every guard below is skipped and decision
        # sequences are bit-identical to the unhardened loop.
        self.hardening = hardening
        self.guard: PlacementGuard | None = None
        self.backoff: AllocationBackoff | None = None
        self.breaker: ForecastCircuitBreaker | None = None
        self.fallback_policy: Allocator | None = None
        if hardening is not None:
            self.guard = PlacementGuard(system, hardening)
            self.backoff = AllocationBackoff(hardening)
            if getattr(policy, "name", "") != "nonpredictive":
                self.breaker = ForecastCircuitBreaker(hardening)
                self.fallback_policy = (
                    check_allocator(fallback_policy)
                    if fallback_policy is not None
                    else NonPredictivePolicy()
                )
        #: Accepted Figure 5 forecasts awaiting realization, keyed by
        #: ``(subtask_index, replica_count)`` — the same matching rule
        #: telemetry spans use.
        self._pending_forecasts: dict[tuple[int, int], float] = {}
        self._breaker_seen: set[int] = set()
        # In multi-task deployments eq. 5's buffer term is driven by the
        # *total* periodic workload across tasks (paper §3, property 4 /
        # eq. 5); the coordinator supplies this hook.  Single-task runs
        # default to this task's own workload.
        self.total_workload_fn = total_workload_fn
        self.monitor = RuntimeMonitor(
            self.task,
            slack_fraction=self.config.slack_fraction,
            shutdown_slack_fraction=self.config.shutdown_slack_fraction,
            window=self.config.monitor_window,
            telemetry=system.engine.telemetry,
            max_record_age_s=(
                hardening.max_record_age_s if hardening is not None else None
            ),
        )
        self.history: list[RMEvent] = []
        self.deadlines: DeadlineAssignment = self._initial_deadlines()
        #: True once :meth:`kill` ran (controller crash fault).
        self.killed = False
        #: Pending step-event handles (cancelled by :meth:`kill`).
        self._step_events: list = []
        #: Simulation time of the most recent completed step — the
        #: heartbeat the failover coordinator's lease check reads.
        self.last_step_time = float("-inf")

    # -- deadline management --------------------------------------------------------

    def _initial_deadlines(self) -> DeadlineAssignment:
        """§4.1: derive initial budgets from (dinit, uinit, cinit)."""
        exec_est, comm_est = self.estimator.chain_estimate_seconds(
            self.config.initial_d_tracks, self.config.initial_utilization
        )
        return assign_deadlines(
            self.task, exec_est, comm_est, strategy=self.config.deadline_strategy
        )

    def _reassign_deadlines(self, d_tracks: float) -> None:
        """Re-derive budgets after an RM action (§4.1).

        Under the default ``"initial"`` reference the stage estimates use
        the fixed ``(dinit, uinit)`` conditions refreshed with the current
        mean utilization, so budgets stay a stable decomposition of the
        deadline; under ``"current"`` they chase the live allocation (see
        :class:`RMConfig`).
        """
        mean_u = self.system.mean_utilization()
        if self.hardening is not None and (
            not math.isfinite(mean_u) or not 0.0 <= mean_u <= 1.0
        ):
            # Corrupted readings can push the cluster mean outside any
            # plausible busy fraction; fall back to the configured
            # reference conditions rather than feeding garbage to eq. 3.
            mean_u = self.config.initial_utilization
        if self.config.deadline_reference == "initial":
            d_ref = self.config.initial_d_tracks
            share_of = {s.index: d_ref for s in self.task.subtasks}
        else:
            d_ref = d_tracks
            share_of = {
                s.index: d_tracks / self.assignment.replica_count(s.index)
                for s in self.task.subtasks
            }
        exec_est: list[float] = []
        for subtask in self.task.subtasks:
            exec_est.append(
                max(
                    self.estimator.eex_seconds(
                        subtask.index, share_of[subtask.index], mean_u
                    ),
                    1e-6,
                )
            )
        comm_est: list[float] = []
        for message in self.task.messages:
            comm_est.append(
                self.estimator.ecd_seconds(
                    message.index, share_of[message.index + 1], d_ref
                )
            )
        self.deadlines = assign_deadlines(
            self.task, exec_est, comm_est, strategy=self.config.deadline_strategy
        )

    # -- the control loop ------------------------------------------------------------

    def start(self, n_periods: int, first_release: float = 0.0) -> None:
        """Schedule one RM step per period boundary (before the release).

        :meth:`~repro.sim.engine.Engine.schedule_many` consumes sequence
        numbers in input order, so this is observationally identical to
        a per-period ``schedule_at`` loop.
        """
        self._step_events = self.system.engine.schedule_many(
            [first_release + c * self.task.period for c in range(n_periods)],
            self.step,
            priority=RM_PRIORITY,
            labels="rm.step",
        )

    def kill(self) -> int:
        """Crash the controller: cancel every pending step, permanently.

        Models the ``rm_crash`` chaos fault — the executor keeps
        releasing periods, but no monitoring or adaptation happens until
        a standby takes over (:mod:`repro.recovery.failover`).  Returns
        the number of steps cancelled; idempotent.
        """
        if self.killed:
            return 0
        self.killed = True
        cancelled = sum(1 for event in self._step_events if event.cancel())
        self._step_events = []
        telemetry = self.system.engine.telemetry
        if telemetry.enabled:
            telemetry.trace(
                self.system.engine.now, "rm", "rm.crash", {"cancelled": cancelled}
            )
        return cancelled

    def on_rm_crash(self, injection) -> None:
        """Chaos hook for the ``rm_crash`` fault (no-failover baseline)."""
        self.kill()

    # -- controller state (failover / snapshots) -----------------------------

    def state_dict(self) -> dict[str, object]:
        """The controller's pure mutable state, deep-copied.

        Everything a standby manager needs to continue the decision
        sequence from this point: deadlines, decision history, pending
        forecast bookkeeping, and the hardening components' counters.
        Shared live objects (system, executor, estimator) are *not*
        included — a standby attaches to the same instances.
        """
        state: dict[str, object] = {
            "deadlines": self.deadlines,
            "history": list(self.history),
            "pending_forecasts": dict(self._pending_forecasts),
            "breaker_seen": set(self._breaker_seen),
            "last_observed_period": getattr(self, "_last_observed_period", -1),
            "last_step_time": self.last_step_time,
        }
        if self.guard is not None:
            state["guard"] = {
                "last_counts": dict(self.guard._last_counts),
                "crash_times": {
                    name: list(times)
                    for name, times in self.guard._crash_times.items()
                },
                "exclusions": dict(self.guard.exclusions),
            }
        if self.backoff is not None:
            state["backoff"] = {
                "consecutive": dict(self.backoff._consecutive),
                "next_allowed": dict(self.backoff._next_allowed),
                "suppressed": self.backoff.suppressed,
            }
        if self.breaker is not None:
            state["breaker"] = {
                "state": self.breaker.state,
                "trips": self.breaker.trips,
                "observations": self.breaker.observations,
                "mispredictions": self.breaker.mispredictions,
                "errors": list(self.breaker._errors),
                "opened_at": self.breaker._opened_at,
            }
        return state

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore :meth:`state_dict` output into this manager."""
        import copy as _copy
        from collections import deque as _deque

        state = _copy.deepcopy(state)
        self.deadlines = state["deadlines"]  # type: ignore[assignment]
        self.history = list(state["history"])  # type: ignore[arg-type]
        self._pending_forecasts = dict(state["pending_forecasts"])  # type: ignore[arg-type]
        self._breaker_seen = set(state["breaker_seen"])  # type: ignore[arg-type]
        self._last_observed_period = state["last_observed_period"]
        self.last_step_time = float(state["last_step_time"])  # type: ignore[arg-type]
        guard_state = state.get("guard")
        if self.guard is not None and guard_state is not None:
            self.guard._last_counts = dict(guard_state["last_counts"])
            self.guard._crash_times = {
                name: _deque(times)
                for name, times in guard_state["crash_times"].items()
            }
            self.guard.exclusions = dict(guard_state["exclusions"])
        backoff_state = state.get("backoff")
        if self.backoff is not None and backoff_state is not None:
            self.backoff._consecutive = dict(backoff_state["consecutive"])
            self.backoff._next_allowed = dict(backoff_state["next_allowed"])
            self.backoff.suppressed = backoff_state["suppressed"]
        breaker_state = state.get("breaker")
        if self.breaker is not None and breaker_state is not None:
            self.breaker.state = breaker_state["state"]
            self.breaker.trips = breaker_state["trips"]
            self.breaker.observations = breaker_state["observations"]
            self.breaker.mispredictions = breaker_state["mispredictions"]
            self.breaker._errors = _deque(
                breaker_state["errors"],
                maxlen=self.breaker.config.breaker_window,
            )
            self.breaker._opened_at = breaker_state["opened_at"]

    def _handle_failures(self) -> list[tuple[int, str, str | None]]:
        """Evict/migrate replicas stranded on failed processors.

        Survivability handling (the paper's motivating requirement): a
        dead processor's replicas are removed; a subtask whose *only*
        replica died is migrated to the least-utilized live processor.
        Returns the recovery actions taken.
        """
        failed = self.system.failed_processor_names()
        if not failed:
            return []
        recoveries: list[tuple[int, str, str | None]] = []
        for subtask in self.task.subtasks:
            for dead in list(self.assignment.processors_of(subtask.index)):
                if dead not in failed:
                    continue
                if self.assignment.replica_count(subtask.index) > 1:
                    self.assignment.reset(
                        subtask.index,
                        [
                            name
                            for name in self.assignment.processors_of(subtask.index)
                            if name != dead
                        ],
                    )
                    recoveries.append((subtask.index, dead, None))
                else:
                    hosting = set(
                        self.assignment.processors_of(subtask.index)
                    )
                    target = self.system.least_utilized(exclude=hosting)
                    if target is None:
                        continue  # nothing live to migrate to
                    self.assignment.replace_processor(
                        subtask.index, dead, target.name
                    )
                    recoveries.append((subtask.index, dead, target.name))
        return recoveries

    def _feed_observations(self, records) -> None:
        """Push fresh stage measurements to a learning estimator.

        Duck-typed: if the estimator exposes ``observe_stage`` (see
        :class:`repro.regression.online.OnlineCorrectedEstimator`), the
        most recent completed period's execution latencies are reported,
        with the per-replica share and the current mean utilization as
        the query conditions.
        """
        observe = getattr(self.estimator, "observe_stage", None)
        if observe is None or not records:
            return
        record = records[-1]
        if record.period_index <= getattr(self, "_last_observed_period", -1):
            return
        self._last_observed_period = record.period_index
        mean_u = min(1.0, self.system.mean_utilization())
        for stage in record.stages:
            if stage.exec_latency is None or record.d_tracks <= 0.0:
                continue
            share = record.d_tracks / max(stage.replica_count, 1)
            observe(stage.subtask_index, share, mean_u, stage.exec_latency)

    def _feed_breaker(self, now: float, records) -> None:
        """Match realized stage latencies to pending Figure 5 forecasts.

        Uses the same ``(subtask_index, replica_count)`` key the
        telemetry span recorder uses, so the breaker sees exactly the
        predicted-vs-realized pairs the observability stack reports.
        """
        assert self.breaker is not None
        for record in records:
            if record.period_index in self._breaker_seen:
                continue
            self._breaker_seen.add(record.period_index)
            for stage in record.stages:
                if stage.stage_latency is None:
                    continue
                key = (stage.subtask_index, stage.replica_count)
                forecast = self._pending_forecasts.pop(key, None)
                if forecast is not None:
                    self.breaker.observe(now, forecast, stage.stage_latency)

    def step(self) -> RMEvent:
        """Run one monitor/adapt pass (callable directly in tests)."""
        now = self.system.engine.now
        telemetry = self.system.engine.telemetry
        profiler = telemetry.profiler if telemetry.enabled else None
        if telemetry.enabled:
            telemetry.begin_decision(now)
        step_handle = profiler.begin("rm.step") if profiler is not None else 0
        recoveries = self._handle_failures()
        records = self.executor.completed_records()
        self._feed_observations(records)
        if self.breaker is not None:
            self._feed_breaker(now, records)
        overdue = self.executor.overdue_subtasks()
        monitor_handle = profiler.begin("rm.monitor") if profiler is not None else 0
        report = self.monitor.classify(
            now, records, self.deadlines, self.assignment, overdue
        )
        if telemetry.enabled:
            head = next(self.system.by_utilization(), None)
            if head is not None:
                min_u, name = head
                telemetry.on_cluster_utilization(now, min_u, name)
        if profiler is not None:
            profiler.end(monitor_handle, events=len(report.verdicts))
        d_tracks = self.executor.current_d_tracks
        if d_tracks <= 0.0:
            d_tracks = self.config.initial_d_tracks
        total_tracks = (
            self.total_workload_fn()
            if self.total_workload_fn is not None
            else d_tracks
        )
        total_tracks = max(total_tracks, d_tracks)

        excluded: frozenset[str] = frozenset()
        active: Allocator = self.policy
        if self.hardening is not None:
            assert self.guard is not None
            self.guard.observe(now)
            excluded = self.guard.excluded(now)
            if self.breaker is not None and not self.breaker.allow_predictive(now):
                assert self.fallback_policy is not None
                active = self.fallback_policy

        reading_guard = None
        if self.hardening is not None:
            fallback = self.config.initial_utilization

            def reading_guard(reading: float) -> float:
                return sanitize_reading(reading, fallback)

        cycle = len(self.history)
        # Backoff filtering happens before the allocator sees the cycle:
        # each subtask appears at most once per monitor report, so this
        # is decision-identical to the historical interleaved check.
        candidates = tuple(
            verdict.subtask_index
            for verdict in report.candidates(MonitorAction.REPLICATE)
            if self.backoff is None
            or self.backoff.should_attempt(verdict.subtask_index, cycle)
        )
        context = AllocationContext(
            task=self.task,
            assignment=self.assignment,
            system=self.system,
            estimator=self.estimator,
            deadlines=self.deadlines,
            d_tracks=d_tracks,
            total_periodic_tracks=total_tracks,
            candidates=candidates,
            excluded_processors=excluded,
            reading_guard=reading_guard,
            cycle=cycle,
            now=now,
        )
        shutdowns: list[tuple[int, str]] = []
        place_handle = profiler.begin("rm.placement") if profiler is not None else 0
        plan = active.allocate(context)
        outcomes = list(plan.outcomes)
        for outcome in outcomes:
            if self.backoff is not None:
                if outcome.success:
                    self.backoff.record_success(outcome.subtask_index)
                else:
                    self.backoff.record_failure(outcome.subtask_index, cycle)
            if (
                self.breaker is not None
                and outcome.success
                and outcome.forecast_latency is not None
            ):
                key = (
                    outcome.subtask_index,
                    self.assignment.replica_count(outcome.subtask_index),
                )
                self._pending_forecasts[key] = outcome.forecast_latency
        for verdict in report.candidates(MonitorAction.SHUTDOWN):
            removed = self.shutdown_strategy.shutdown(
                context, verdict.subtask_index
            )
            if removed is not None:
                shutdowns.append((verdict.subtask_index, removed))
        if profiler is not None:
            profiler.end(place_handle, events=len(outcomes) + len(shutdowns))

        event = RMEvent(
            time=now,
            report=report,
            outcomes=tuple(outcomes),
            shutdowns=tuple(shutdowns),
            total_replicas=self.assignment.total_replicas(),
            placement=self.assignment.snapshot(),
            recoveries=tuple(recoveries),
            policy_name=active.name,
        )
        if event.acted:
            self._reassign_deadlines(d_tracks)
            if telemetry.enabled:
                telemetry.trace(
                    now,
                    "rm",
                    f"{self.policy.name}.acted",
                    {
                        "replicas": event.total_replicas,
                        "added": sum(len(o.added_processors) for o in outcomes),
                        "removed": len(shutdowns),
                    },
                )
        if telemetry.enabled:
            if self.breaker is not None:
                telemetry.on_breaker_state(
                    now, self.breaker.state, self.breaker.trips
                )
            if profiler is not None:
                step_wall = profiler.end(step_handle, events=1)
                if telemetry.slo is not None:
                    telemetry.slo.on_decision_latency(now, step_wall)
            telemetry.end_decision(self.system.engine.now, event)
        self.history.append(event)
        self.last_step_time = now
        return event

    # -- metric views -----------------------------------------------------------------

    def replica_samples(self) -> list[tuple[float, int]]:
        """``(time, total replicas)`` per step, for the R-bar metric."""
        return [(event.time, event.total_replicas) for event in self.history]

    def actions_taken(self) -> int:
        """Number of steps that changed the placement."""
        return sum(1 for event in self.history if event.acted)
