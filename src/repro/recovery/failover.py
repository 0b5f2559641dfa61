"""Standby resource-manager failover.

The paper's RM is a single controller process: if it dies, the executor
keeps releasing periods but nothing monitors or adapts — exactly what
the ``rm_crash`` chaos fault injects.  The
:class:`FailoverCoordinator` closes that gap with the classic
lease-based pattern:

* a **watchdog** fires every ``watch_interval_s`` at
  :data:`WATCH_PRIORITY` (after any RM step sharing its timestamp) and
  reads the primary's heartbeat
  (:attr:`~repro.core.manager.AdaptiveResourceManager.last_step_time`);
* each time the heartbeat advances, the coordinator **captures** the
  primary's controller state
  (:meth:`~repro.core.manager.AdaptiveResourceManager.state_dict`) —
  controller state only mutates inside ``step``, so capturing on a
  fresh heartbeat always sees a consistent post-step state;
* when the heartbeat goes silent for longer than ``lease_timeout_s``
  the coordinator **promotes** a standby
  :class:`~repro.core.manager.AdaptiveResourceManager` built against
  the same live system/executor/estimator, restores the last captured
  state into it, and schedules its steps on the remaining period
  boundaries.

Takeover latency (crash to promotion) and the monitoring cycles missed
in between feed the
:class:`~repro.chaos.scorecard.ResilienceScorecard` failover fields.
"""

from __future__ import annotations

from repro.core.manager import RM_PRIORITY, AdaptiveResourceManager
from repro.errors import ConfigurationError

#: Watch events run after RM steps and releases sharing their
#: timestamp, so a boundary-coincident check always sees the fresh
#: heartbeat (no false takeovers), and before checkpoints (priority
#: 100) so captures land inside the same timestamp's snapshot.
WATCH_PRIORITY = 50


class FailoverCoordinator:
    """Heartbeat lease over a primary RM, promoting a standby on expiry.

    Parameters
    ----------
    manager:
        The primary controller (must not have been started yet — arm
        the coordinator right after ``manager.start``).
    lease_timeout_s:
        Silence threshold before takeover.  Default ``1.6`` periods:
        comfortably above the one-period heartbeat cadence of a healthy
        controller, under two periods so at most one boundary is lost
        to detection.
    watch_interval_s:
        Watchdog cadence (default: a quarter period).
    """

    def __init__(
        self,
        manager: AdaptiveResourceManager,
        lease_timeout_s: float | None = None,
        watch_interval_s: float | None = None,
    ) -> None:
        period = manager.task.period
        self.primary = manager
        self.system = manager.system
        self.lease_timeout_s = (
            float(lease_timeout_s) if lease_timeout_s is not None else 1.6 * period
        )
        self.watch_interval_s = (
            float(watch_interval_s)
            if watch_interval_s is not None
            else period / 4.0
        )
        if self.lease_timeout_s <= 0.0:
            raise ConfigurationError(
                f"lease_timeout_s must be positive, got {self.lease_timeout_s}"
            )
        if self.watch_interval_s <= 0.0:
            raise ConfigurationError(
                f"watch_interval_s must be positive, got {self.watch_interval_s}"
            )
        #: The controller currently in charge (primary, then standby).
        self.active: AdaptiveResourceManager = manager
        self.standby: AdaptiveResourceManager | None = None
        self.crash_time: float | None = None
        self.takeover_time: float | None = None
        #: Controller-state captures taken (freshness of the standby).
        self.captures = 0
        self._state: dict[str, object] | None = None
        self._last_heartbeat = float("-inf")
        self._n_periods = 0
        self._first_release = 0.0

    def arm(self, n_periods: int, first_release: float = 0.0) -> "FailoverCoordinator":
        """Start the watchdog (call right after ``primary.start``)."""
        self._n_periods = int(n_periods)
        self._first_release = float(first_release)
        engine = self.system.engine
        self._last_heartbeat = engine.now
        engine.schedule(
            self.watch_interval_s,
            self._watch,
            priority=WATCH_PRIORITY,
            label="failover.watch",
        )
        return self

    def on_rm_crash(self, injection) -> None:
        """Chaos hook: kill the primary; the watchdog detects the rest."""
        self.primary.kill()
        if self.crash_time is None:
            self.crash_time = self.system.engine.now

    def _watch(self) -> None:
        """One lease check (self-chaining until takeover)."""
        engine = self.system.engine
        now = engine.now
        if self.active.last_step_time > self._last_heartbeat:
            # Fresh heartbeat: the controller stepped since last check.
            # Controller state only mutates inside step(), so this
            # capture is the consistent post-step state a standby needs.
            self._last_heartbeat = self.active.last_step_time
            self._state = self.active.state_dict()
            self.captures += 1
        elif (
            self.takeover_time is None
            and now - self._last_heartbeat > self.lease_timeout_s
        ):
            self._takeover(now)
        engine.schedule(
            self.watch_interval_s,
            self._watch,
            priority=WATCH_PRIORITY,
            label="failover.watch",
        )

    def _takeover(self, now: float) -> None:
        """Promote a standby from the last captured controller state."""
        primary = self.primary
        standby = AdaptiveResourceManager(
            primary.system,
            primary.executor,
            primary.estimator,
            primary.policy,
            config=primary.config,
            shutdown_strategy=primary.shutdown_strategy,
            total_workload_fn=primary.total_workload_fn,
            hardening=primary.hardening,
            fallback_policy=primary.fallback_policy,
        )
        if self._state is not None:
            standby.load_state_dict(self._state)
        period = primary.task.period
        remaining = [
            t
            for c in range(self._n_periods)
            if (t := self._first_release + c * period) > now
        ]
        if remaining:
            standby._step_events = self.system.engine.schedule_many(
                remaining, standby.step, priority=RM_PRIORITY, labels="rm.step"
            )
        self.standby = standby
        self.active = standby
        self.takeover_time = now
        telemetry = self.system.engine.telemetry
        if telemetry.enabled:
            telemetry.trace(
                now,
                "rm",
                "rm.takeover",
                {
                    "crash_time": self.crash_time,
                    "latency_s": self.takeover_latency_s,
                    "missed_cycles": self.missed_cycles(),
                    "remaining_steps": len(remaining),
                },
            )

    # -- scorecard views ------------------------------------------------------

    @property
    def took_over(self) -> bool:
        """Whether the standby was promoted."""
        return self.takeover_time is not None

    @property
    def takeover_latency_s(self) -> float | None:
        """Crash-to-promotion latency (``None`` before both happened)."""
        if self.crash_time is None or self.takeover_time is None:
            return None
        return self.takeover_time - self.crash_time

    def missed_cycles(self) -> int:
        """Period boundaries with no live controller.

        Counts monitoring boundaries in ``(crash_time, takeover_time]``
        — or to the horizon's end when no takeover happened (the
        no-failover baseline's unbounded outage).
        """
        if self.crash_time is None:
            return 0
        end = (
            self.takeover_time
            if self.takeover_time is not None
            else float("inf")
        )
        period = self.primary.task.period
        return sum(
            1
            for c in range(self._n_periods)
            if self.crash_time < self._first_release + c * period <= end
        )
