"""Experiment configuration (paper §5.1, Table 1).

:class:`BaselineConfig` captures the published baseline parameters plus
the reproduction's own knobs (documented substitutions: event counts,
noise, overheads).  :class:`ExperimentConfig` adds the per-run axes —
policy, workload pattern, maximum workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.cluster.processor import Discipline
from repro.errors import ConfigurationError
from repro.telemetry.slo import SloRule
from repro.units import (
    ETHERNET_100_MBPS,
    MS,
    TRACK_BYTES,
    s_to_ms,
    workload_units_to_tracks,
)


def _check_override_names(config: Any, overrides: dict[str, Any]) -> None:
    """Reject override names that are not fields of ``config``."""
    known = {f.name for f in fields(config)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown {type(config).__name__} field(s) "
            f"{', '.join(map(repr, unknown))}; valid fields: "
            f"{', '.join(sorted(known))}"
        )


@dataclass(frozen=True, kw_only=True)
class BaselineConfig:
    """Table 1 baseline parameters plus reproduction knobs.

    Published (Table 1)
    -------------------
    * ``n_nodes`` = 6
    * round-robin CPU scheduling, 1 ms time slice (we default to its
      processor-sharing limit; set ``discipline`` to ``ROUND_ROBIN`` for
      quantum-exact runs)
    * Ethernet at 100 Mbit/s
    * 80-byte tracks, 1 s data arrival period, 990 ms relative deadline
    * 1 periodic task, 5 subtasks, 2 replicable
    * non-predictive utilization threshold ``UT`` = 20 %

    Reproduction knobs
    ------------------
    * ``n_periods`` — periods simulated per experiment
    * ``min_workload_units`` — the pattern's floor (Figure 8's minimum)
    * ``noise_sigma`` — execution-time noise of the synthetic benchmark
    * ``message_overhead_bytes`` — per-message protocol overhead
    * ``slack_fraction`` etc. — RM loop tunables (paper's §4 defaults)
    """

    # Table 1
    n_nodes: int = 6
    discipline: Discipline = Discipline.PROCESSOR_SHARING
    quantum: float = 1.0 * MS
    bandwidth_bps: float = ETHERNET_100_MBPS
    track_bytes: int = TRACK_BYTES
    period: float = 1.0
    deadline: float = 990.0 * MS
    utilization_threshold: float = 0.20

    # Reproduction
    n_periods: int = 60
    min_workload_units: float = 0.5
    noise_sigma: float = 0.08
    message_overhead_bytes: float = 1500.0
    network_mode: str = "shared"
    #: Per-transmission loss probability (0 = the reliable baseline).
    message_loss_probability: float = 0.0
    #: One service-rate factor per node (None = homogeneous, Table 1).
    speed_factors: tuple[float, ...] | None = None
    utilization_window: float = 5.0
    slack_fraction: float = 0.2
    shutdown_slack_fraction: float = 0.6
    monitor_window: int = 3
    deadline_strategy: str = "sequential_eqf"
    shutdown_strategy: str = "lifo"
    drop_factor: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.n_periods < 1:
            raise ConfigurationError(
                f"n_periods must be >= 1, got {self.n_periods}"
            )
        if self.deadline > self.period:
            raise ConfigurationError(
                "the benchmark task is constrained-deadline: deadline "
                f"{self.deadline} must not exceed period {self.period}"
            )
        if self.min_workload_units <= 0.0:
            raise ConfigurationError(
                f"min_workload_units must be positive, got "
                f"{self.min_workload_units}"
            )
        if self.shutdown_strategy not in ("lifo", "forecast_aware"):
            raise ConfigurationError(
                "shutdown_strategy must be 'lifo' or 'forecast_aware', got "
                f"{self.shutdown_strategy!r}"
            )

    def with_overrides(self, **overrides: Any) -> "BaselineConfig":
        """A copy with some fields replaced.

        Unknown names raise :class:`~repro.errors.ConfigurationError`
        (a typo in a sweep override would otherwise silently produce a
        ``TypeError`` deep inside ``dataclasses.replace``).
        """
        _check_override_names(self, overrides)
        return replace(self, **overrides)

    def as_table_rows(self) -> list[tuple[str, str]]:
        """Table 1 rendered as (parameter, value) rows."""
        scheduler = (
            f"Round-Robin (time slice = {s_to_ms(self.quantum):g} ms; "
            "simulated as its processor-sharing limit)"
            if self.discipline is Discipline.PROCESSOR_SHARING
            else f"Round-Robin (time slice = {s_to_ms(self.quantum):g} ms; exact)"
        )
        return [
            ("Number of nodes", str(self.n_nodes)),
            ("CPU scheduler at each node", scheduler),
            (
                "Network",
                f"Ethernet (transmission speed = "
                f"{self.bandwidth_bps / 1e6:g} Mbps)",
            ),
            ("Data item (track) size", f"{self.track_bytes} bytes"),
            ("Data arrival period", f"{self.period:g} sec"),
            ("Relative end-to-end deadline", f"{s_to_ms(self.deadline):g} ms"),
            ("Number of periodic tasks", "1"),
            ("Number of subtasks per task", "5"),
            ("Number of replicable subtasks per task", "2"),
            (
                "CPU utilization threshold (non-predictive)",
                f"{self.utilization_threshold * 100:g}%",
            ),
        ]


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One experiment: a policy meets a workload pattern.

    Attributes
    ----------
    policy:
        ``"predictive"`` or ``"nonpredictive"``.
    pattern:
        One of :data:`repro.workloads.patterns.PATTERN_NAMES`.
    max_workload_units:
        Figure 9-13 x-axis value (1 unit = 500 tracks).
    baseline:
        Shared baseline parameters.
    chaos_scenario:
        Name of a :mod:`repro.chaos` scenario to inject (``None`` — the
        default — runs fault-free and is bit-identical to a build that
        never imports chaos; ``"none"`` arms an empty scenario, which
        is equivalent by construction).
    hardened:
        Run the RM loop with the default
        :class:`repro.core.hardening.HardeningConfig` defenses (stale
        record aging, placement guard, allocation backoff, forecast
        circuit breaker).
    slo:
        Optional tuple of :class:`repro.telemetry.slo.SloRule` to
        evaluate during the run.  ``None`` (the default) runs without
        an SLO engine; the runner then arms an internal telemetry hub
        when rules are present, so SLO verdicts work even for callers
        that never touch telemetry.  The decision sequence is
        unaffected either way.
    checkpoint:
        Sim-time interval (seconds) between periodic run snapshots
        (:mod:`repro.recovery`).  ``None`` (the default) never
        checkpoints.  Checkpoint events never change decisions: a
        checkpointed run's decision digest equals the unarmed run's.
    failover:
        Arm a standby controller with heartbeat/lease detection
        (:class:`repro.recovery.failover.FailoverCoordinator`); on an
        ``rm_crash`` chaos fault the standby takes over from the last
        controller-state checkpoint instead of leaving the run without
        adaptation.
    """

    policy: str
    pattern: str
    max_workload_units: float
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    chaos_scenario: str | None = None
    hardened: bool = False
    slo: tuple[SloRule, ...] | None = None
    checkpoint: float | None = None
    failover: bool = False

    def __post_init__(self) -> None:
        if self.max_workload_units <= 0.0:
            raise ConfigurationError(
                f"max_workload_units must be positive, got "
                f"{self.max_workload_units}"
            )
        if self.checkpoint is not None and self.checkpoint <= 0.0:
            raise ConfigurationError(
                f"checkpoint interval must be positive, got {self.checkpoint}"
            )

    def with_overrides(self, **overrides: Any) -> "ExperimentConfig":
        """A copy with some fields replaced (symmetric with
        :meth:`BaselineConfig.with_overrides`); unknown names raise
        :class:`~repro.errors.ConfigurationError`.
        """
        _check_override_names(self, overrides)
        return replace(self, **overrides)

    @property
    def max_tracks(self) -> float:
        """Pattern maximum in tracks."""
        return workload_units_to_tracks(self.max_workload_units)

    @property
    def min_tracks(self) -> float:
        """Pattern minimum in tracks (never above the maximum)."""
        return min(
            workload_units_to_tracks(self.baseline.min_workload_units),
            self.max_tracks,
        )


#: The Figure 9-13 sweep (x-axis points, 1 unit = 500 tracks).
DEFAULT_SWEEP_UNITS: tuple[float, ...] = (1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0)
