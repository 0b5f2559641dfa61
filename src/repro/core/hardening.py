"""Degraded-input defenses for the RM control loop.

The paper's controller assumes its inputs are trustworthy: utilization
readings are current and within [0, 1], placements succeed, and the
regression forecasts stay calibrated.  Under the fault processes of
:mod:`repro.chaos` every one of those assumptions breaks, and a naive
predictive controller fails ungracefully — it concentrates replicas on
a processor whose reading is corrupted, re-places work on a flapping
node the instant it recovers, and keeps trusting eq. 3 forecasts long
after interference has invalidated them.

This module holds the three defenses the
:class:`~repro.core.manager.AdaptiveResourceManager` activates when
constructed with a :class:`HardeningConfig` (the default, ``None``,
leaves every decision sequence bit-identical to the unhardened loop):

* :class:`PlacementGuard` — excludes repeat-offender processors
  (several crashes inside a sliding window) and processors whose
  utilization reading is non-finite or outside [0, 1] from placement
  for the current cycle;
* :class:`AllocationBackoff` — bounded exponential backoff per subtask
  after FAILED replication attempts, so a hopeless candidate is not
  retried every single period;
* :class:`ForecastCircuitBreaker` — tracks predicted-vs-realized stage
  latency and, when mispredictions exceed a threshold, falls back from
  the predictive policy (Figure 5) to the non-predictive one
  (Figure 7), re-arming after a quiet cooldown window.

:func:`sanitize_reading` is the last line of defense: the hardened
manager installs it as the
:attr:`~repro.core.allocation.AllocationContext.reading_guard`, so a
corrupted reading that slips past the placement guard (e.g. on a
processor that already hosts a replica) is clamped before it can reach
the regression models — in every allocator and in the forecast-aware
shutdown, which all forecast through
:meth:`~repro.core.allocation.AllocationContext.forecast_latency`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.cluster.topology import System
from repro.errors import ConfigurationError


def sanitize_reading(reading: float, fallback: float) -> float:
    """A utilization reading forced into the plausible range.

    Non-finite readings (NaN, inf) become ``fallback``; finite readings
    are clamped into [0, 1].  The unhardened loop never calls this —
    feeding eq. 3 an implausible utilization raises
    :class:`~repro.errors.RegressionError` there, which *is* the
    controller crashing on faulty input.
    """
    if not math.isfinite(reading):
        return fallback
    return min(1.0, max(0.0, reading))


@dataclass(frozen=True, kw_only=True)
class HardeningConfig:
    """Tunables of the hardened control loop.

    Attributes
    ----------
    max_record_age_s:
        Monitor input hygiene: finished-period records whose resolution
        time is older than this are ignored by the monitor instead of
        silently averaged (``None`` keeps every record, the unhardened
        behavior).
    offender_failure_threshold / offender_window_s:
        A processor with at least ``offender_failure_threshold`` crashes
        inside the trailing ``offender_window_s`` seconds is excluded
        from placement until the window drains.  The defaults only trip
        for genuinely *flapping* nodes; ordinary crash/recovery churn
        (one failure per window) must keep its capacity schedulable.
    guard_min_available:
        Capacity floor: the guard never excludes live processors below
        this fraction of the live cluster (rounded up).  Shedding
        untrustworthy targets must not starve placement — with a
        too-eager guard the cure is worse than the fault.
    backoff_initial_cycles / backoff_max_cycles:
        After a FAILED replication attempt the subtask is skipped for
        ``initial * 2**(consecutive_failures - 1)`` RM cycles, capped at
        ``backoff_max_cycles``.
    breaker_error_ratio:
        Relative forecast error ``|realized - forecast| / forecast``
        above which one realization counts as a misprediction.
    breaker_trip_count / breaker_window:
        The breaker opens when at least ``breaker_trip_count`` of the
        last ``breaker_window`` realizations were mispredictions.
    breaker_cooldown_s:
        Seconds the breaker stays open before re-arming (half-open: the
        next misprediction re-opens it immediately).
    """

    max_record_age_s: float | None = 4.0
    offender_failure_threshold: int = 3
    offender_window_s: float = 20.0
    guard_min_available: float = 0.5
    backoff_initial_cycles: int = 1
    backoff_max_cycles: int = 8
    breaker_error_ratio: float = 0.5
    breaker_trip_count: int = 3
    breaker_window: int = 8
    breaker_cooldown_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_record_age_s is not None and self.max_record_age_s <= 0.0:
            raise ConfigurationError(
                f"max_record_age_s must be positive, got {self.max_record_age_s}"
            )
        if self.offender_failure_threshold < 1:
            raise ConfigurationError(
                "offender_failure_threshold must be >= 1, got "
                f"{self.offender_failure_threshold}"
            )
        if self.offender_window_s <= 0.0:
            raise ConfigurationError(
                f"offender_window_s must be positive, got {self.offender_window_s}"
            )
        if not 0.0 <= self.guard_min_available <= 1.0:
            raise ConfigurationError(
                "guard_min_available must be in [0, 1], got "
                f"{self.guard_min_available}"
            )
        if self.backoff_initial_cycles < 1:
            raise ConfigurationError(
                "backoff_initial_cycles must be >= 1, got "
                f"{self.backoff_initial_cycles}"
            )
        if self.backoff_max_cycles < self.backoff_initial_cycles:
            raise ConfigurationError(
                "backoff_max_cycles must be >= backoff_initial_cycles, got "
                f"{self.backoff_max_cycles}"
            )
        if self.breaker_error_ratio <= 0.0:
            raise ConfigurationError(
                f"breaker_error_ratio must be positive, got {self.breaker_error_ratio}"
            )
        if not 1 <= self.breaker_trip_count <= self.breaker_window:
            raise ConfigurationError(
                "breaker_trip_count must be in [1, breaker_window], got "
                f"{self.breaker_trip_count} (window {self.breaker_window})"
            )
        if self.breaker_cooldown_s <= 0.0:
            raise ConfigurationError(
                f"breaker_cooldown_s must be positive, got {self.breaker_cooldown_s}"
            )


class PlacementGuard:
    """Per-cycle exclusion of untrustworthy placement targets.

    Two independent signals feed the exclusion set:

    * **repeat offenders** — :meth:`observe` diffs every processor's
      cumulative ``failure_count`` and timestamps each new crash; a
      processor with ``offender_failure_threshold`` or more crashes in
      the trailing ``offender_window_s`` is excluded, so a flapping
      node stops being the "least utilized" target the moment it
      recovers (its meter is idle precisely *because* it keeps dying);
    * **implausible readings** — a utilization reading that is NaN,
      infinite, or outside [0, 1] cannot come from a healthy busy
      fraction; the processor is excluded rather than trusted (a
      corrupted reading of -1 would otherwise *win* every
      least-utilized query).
    """

    def __init__(self, system: System, config: HardeningConfig) -> None:
        self.system = system
        self.config = config
        self._last_counts: dict[str, int] = {
            p.name: p.failure_count for p in system.processors
        }
        self._crash_times: dict[str, deque[float]] = {
            p.name: deque() for p in system.processors
        }
        #: Cumulative exclusions by reason, for the scorecard/telemetry.
        self.exclusions: dict[str, int] = {"offender": 0, "reading": 0}

    def observe(self, now: float) -> None:
        """Record any crashes since the previous cycle."""
        for processor in self.system.processors:
            seen = self._last_counts[processor.name]
            if processor.failure_count > seen:
                times = self._crash_times[processor.name]
                times.extend([now] * (processor.failure_count - seen))
                self._last_counts[processor.name] = processor.failure_count

    def excluded(self, now: float) -> frozenset[str]:
        """Processors to keep out of placement this cycle.

        Candidates are ranked worst-first (implausible readings, then
        offenders by crash count) and applied only while the
        ``guard_min_available`` capacity floor holds: at least that
        fraction of the *live* cluster stays schedulable no matter how
        many processors look untrustworthy.
        """
        horizon = now - self.config.offender_window_s
        bad_readings: list[str] = []
        offenders: list[tuple[int, str]] = []
        readings = self.system.utilizations()
        for processor in self.system.processors:
            times = self._crash_times[processor.name]
            while times and times[0] < horizon:
                times.popleft()
            reading = readings[processor.name]
            if not math.isfinite(reading) or not 0.0 <= reading <= 1.0:
                bad_readings.append(processor.name)
            elif len(times) >= self.config.offender_failure_threshold:
                offenders.append((len(times), processor.name))
        offenders.sort(key=lambda item: (-item[0], item[1]))
        live = {p.name for p in self.system.processors if not p.failed}
        min_available = math.ceil(len(live) * self.config.guard_min_available)
        budget = max(0, len(live) - min_available)
        names: set[str] = set()
        live_excluded = 0
        for reason, name in [("reading", n) for n in bad_readings] + [
            ("offender", n) for _, n in offenders
        ]:
            if name in live:
                if live_excluded >= budget:
                    continue
                live_excluded += 1
            names.add(name)
            self.exclusions[reason] += 1
        return frozenset(names)


class AllocationBackoff:
    """Bounded exponential backoff for failed replication attempts.

    Cycles are RM step indices, not seconds: the manager runs once per
    period, so "skip 4 cycles" is four periods of not hammering a
    candidate that Figure 5 just declared unsatisfiable.
    """

    def __init__(self, config: HardeningConfig) -> None:
        self.config = config
        self._consecutive: dict[int, int] = {}
        self._next_allowed: dict[int, int] = {}
        #: Replication attempts suppressed, for the scorecard.
        self.suppressed = 0

    def should_attempt(self, subtask_index: int, cycle: int) -> bool:
        """Whether this cycle may try to replicate ``subtask_index``."""
        allowed = cycle >= self._next_allowed.get(subtask_index, 0)
        if not allowed:
            self.suppressed += 1
        return allowed

    def record_failure(self, subtask_index: int, cycle: int) -> None:
        """Note a FAILED outcome and push out the next attempt."""
        consecutive = self._consecutive.get(subtask_index, 0) + 1
        self._consecutive[subtask_index] = consecutive
        delay = min(
            self.config.backoff_initial_cycles * 2 ** (consecutive - 1),
            self.config.backoff_max_cycles,
        )
        self._next_allowed[subtask_index] = cycle + delay

    def record_success(self, subtask_index: int) -> None:
        """A successful attempt clears the subtask's backoff state."""
        self._consecutive.pop(subtask_index, None)
        self._next_allowed.pop(subtask_index, None)


class ForecastCircuitBreaker:
    """Fall back to the non-predictive policy when forecasts go bad.

    States follow the classic pattern: **closed** (predictive policy
    active, realizations monitored), **open** (non-predictive fallback,
    waiting out the cooldown), **half-open** (predictive again, but one
    more misprediction re-opens immediately).  The error history is
    cleared on every transition so stale samples cannot re-trip a
    freshly re-armed breaker.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, config: HardeningConfig) -> None:
        self.config = config
        self.state = self.CLOSED
        self.trips = 0
        self.observations = 0
        self.mispredictions = 0
        self._errors: deque[bool] = deque(maxlen=config.breaker_window)
        self._opened_at = 0.0

    def observe(self, now: float, forecast_s: float, realized_s: float) -> None:
        """Feed one predicted-vs-realized stage latency pair."""
        if self.state == self.OPEN:
            return
        error_ratio = abs(realized_s - forecast_s) / max(forecast_s, 1e-9)
        bad = error_ratio > self.config.breaker_error_ratio
        self.observations += 1
        if bad:
            self.mispredictions += 1
        if self.state == self.HALF_OPEN:
            if bad:
                self._trip(now)
            else:
                self.state = self.CLOSED
            return
        self._errors.append(bad)
        if sum(self._errors) >= self.config.breaker_trip_count:
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = self.OPEN
        self.trips += 1
        self._opened_at = now
        self._errors.clear()

    def allow_predictive(self, now: float) -> bool:
        """Whether the predictive policy may run this cycle."""
        if self.state == self.OPEN:
            if now - self._opened_at >= self.config.breaker_cooldown_s:
                self.state = self.HALF_OPEN
                self._errors.clear()
                return True
            return False
        return True
