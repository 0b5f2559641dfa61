"""Experiment metrics (paper §5.2).

Four per-experiment metrics, all reported as fractions in [0, 1]:

* **missed-deadline ratio** ``MD`` — fraction of released periods whose
  end-to-end latency exceeded the deadline (aborted/shed periods count
  as missed; periods still in flight at the measurement horizon count
  as missed as well, since they are by construction overdue);
* **average CPU utilization** ``U_cpu`` — busy fraction over the run,
  averaged across processors;
* **average network utilization** ``U_net`` — busy fraction of the
  shared medium over the run;
* **replica ratio** ``R / Max(R)`` — the time-averaged total number of
  replicas of the replicable subtasks over the maximum possible
  (``n_processors`` per replicable subtask, the placement-invariant
  ceiling: replicas of one subtask must sit on distinct processors).

The **combined performance metric** is their unweighted sum
``C = MD + U_cpu + U_net + R/Max(R)`` (lower is better), exactly the
paper's aggregate.

With the allocator zoo (:mod:`repro.core.zoo`) C also anchors a
*regret* measure: :func:`regret_by_policy` scores each policy's C
against the :class:`~repro.core.zoo.OracleAllocator`'s C on the same
cell, isolating how much a policy gives up to imperfect forecasting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.cluster.topology import System
from repro.core.manager import AdaptiveResourceManager
from repro.errors import ConfigurationError
from repro.experiments.history_index import RunHistoryIndex
from repro.runtime.executor import PeriodicTaskExecutor

#: Registry name of the allocator whose C anchors the regret measure.
ORACLE_POLICY = "oracle"


@dataclass(frozen=True)
class ExperimentMetrics:
    """The §5.2 metric set for one experiment run."""

    missed_deadline_ratio: float
    avg_cpu_utilization: float
    avg_network_utilization: float
    avg_replicas: float
    max_replicas: int

    # Raw counts for reporting/debugging.
    periods_released: int = 0
    periods_missed: int = 0
    periods_aborted: int = 0
    rm_actions: int = 0

    @property
    def replica_ratio(self) -> float:
        """``R / Max(R)``."""
        if self.max_replicas <= 0:
            return 0.0
        return self.avg_replicas / self.max_replicas

    @property
    def combined(self) -> float:
        """``C = MD + U_cpu + U_net + R/Max(R)`` (lower is better)."""
        return (
            self.missed_deadline_ratio
            + self.avg_cpu_utilization
            + self.avg_network_utilization
            + self.replica_ratio
        )

    def as_dict(self) -> dict[str, float]:
        """All metrics keyed by short name (for tables and CSV)."""
        return {
            "missed": self.missed_deadline_ratio,
            "cpu": self.avg_cpu_utilization,
            "net": self.avg_network_utilization,
            "replicas": self.avg_replicas,
            "replica_ratio": self.replica_ratio,
            "combined": self.combined,
        }


def compute_metrics(
    system: System,
    executor: PeriodicTaskExecutor,
    manager: AdaptiveResourceManager,
    t_start: float,
    t_end: float,
    index: RunHistoryIndex | None = None,
) -> ExperimentMetrics:
    """Derive the metric set from a finished run.

    Parameters
    ----------
    t_start / t_end:
        Measurement interval (usually 0 to ``n_periods * period``).
    index:
        The run's :class:`~repro.experiments.history_index.RunHistoryIndex`,
        if the caller already maintains one (its accumulated counters are
        reused); one is built ad hoc otherwise.
    """
    if t_end <= t_start:
        raise ConfigurationError(f"bad measurement interval [{t_start}, {t_end}]")
    span = t_end - t_start

    if index is None:
        index = RunHistoryIndex(executor, manager)
    index.update()
    released, missed, aborted = index.period_counts(t_end)
    md = missed / released if released else 0.0

    cpu_utils = [
        p.meter.busy_between(t_start, t_end) / span for p in system.processors
    ]
    avg_cpu = sum(cpu_utils) / len(cpu_utils)
    avg_net = system.network.meter.busy_between(t_start, t_end) / span

    task = executor.task
    n_replicable = len(task.replicable_indices())
    mean = index.windowed_replica_mean(t_start, t_end)
    avg_replicas = (
        mean if mean is not None else float(executor.assignment.total_replicas())
    )
    max_replicas = system.size * n_replicable

    return ExperimentMetrics(
        missed_deadline_ratio=md,
        avg_cpu_utilization=avg_cpu,
        avg_network_utilization=avg_net,
        avg_replicas=avg_replicas,
        max_replicas=max_replicas,
        periods_released=released,
        periods_missed=missed,
        periods_aborted=aborted,
        rm_actions=index.actions_taken(),
    )


def regret_by_policy(
    combined_by_policy: Mapping[str, float],
    oracle_policy: str = ORACLE_POLICY,
) -> dict[str, float]:
    """Per-policy regret: ``C_policy - C_oracle`` on one cell.

    Takes the combined metric C of several policies measured under
    identical conditions (same pattern, workload, seed, scenario) and
    returns how much C each gives up relative to the perfect-forecast
    reference — 0.0 for the oracle itself, positive when a policy's
    imperfect forecasting cost it, negative in the (possible) event a
    heuristic beat the oracle's greedy plan on that cell.

    Raises :class:`~repro.errors.ConfigurationError` when the reference
    policy is missing from the input.
    """
    if oracle_policy not in combined_by_policy:
        raise ConfigurationError(
            f"regret needs the reference policy {oracle_policy!r}; got "
            f"{sorted(combined_by_policy)}"
        )
    reference = combined_by_policy[oracle_policy]
    return {
        policy: combined - reference
        for policy, combined in combined_by_policy.items()
    }
