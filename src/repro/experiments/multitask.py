"""Multi-task deployments (paper §3: ``T = {T1, T2, T3, ...}``).

The paper's evaluation uses a single periodic task (Table 1), but its
model — and crucially eq. 5's buffer-delay term, which sums
``ds(T_i, c)`` **over all tasks** — is defined for a set.  This module
runs several benchmark tasks side by side on one system:

* each task gets its own executor, replica map and resource manager
  (decentralized management, as the paper's supervisory architecture
  prescribes);
* all share the processors and the Ethernet segment, so they contend
  for real;
* a :class:`WorkloadLedger` feeds every manager the *total* periodic
  workload, which drives both eq. 5 forecasts and the buffer delays
  the network actually produces.

The machine and every task's manager come from the helpers
:func:`repro.experiments.runner.build_world` uses, so a multi-task run
honours the same baseline fields, shutdown strategy and hardening as a
single run.  Each task's metrics are
:func:`~repro.experiments.metrics.compute_metrics` over its own
executor and manager; the aggregate folds them (misses over all
released periods, replicas summed, ``Max(R) = m x total replicable
subtasks``).  Chaos, SLO rules, checkpoints and failover arm one
task's run, so a multi-task run rejects them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.app import aaw_task, default_initial_placement
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.estimator_cache import get_estimator
from repro.experiments.metrics import ExperimentMetrics, compute_metrics
from repro.experiments.runner import _manager_for, _system_for
from repro.regression.estimator import TimingEstimator
from repro.runtime.executor import ExecutorConfig, PeriodicTaskExecutor
from repro.tasks.state import ReplicaAssignment
from repro.workloads.patterns import make_pattern


class WorkloadLedger:
    """Tracks each task's current periodic workload; answers the total.

    Executors publish ``ds(T_i, c)`` as they release periods; managers
    read :meth:`total` when forecasting eq. 5's buffer term.
    """

    def __init__(self) -> None:
        self._current: dict[str, float] = {}

    def publish(self, task_name: str, d_tracks: float) -> None:
        """Record task ``task_name``'s current period workload."""
        self._current[task_name] = float(d_tracks)

    def total(self) -> float:
        """``sum_i ds(T_i, c)`` over all registered tasks."""
        return sum(self._current.values())

    def of(self, task_name: str) -> float:
        """One task's current workload (0 before its first release)."""
        return self._current.get(task_name, 0.0)


@dataclass(frozen=True)
class MultiTaskResult:
    """Aggregated outcome of a multi-task experiment."""

    per_task_metrics: dict[str, ExperimentMetrics]
    aggregate: ExperimentMetrics
    n_tasks: int


def _ledgered_workload(pattern, ledger: WorkloadLedger, task_name: str):
    """Wrap a pattern so each release is published to the ledger."""

    def workload(period_index: int) -> float:
        d = pattern(period_index)
        ledger.publish(task_name, d)
        return d

    return workload


def check_multi_task_config(config: ExperimentConfig) -> None:
    """Reject the fields that arm a single run (raises ConfigurationError).

    Chaos, SLO rules, checkpoints and failover instrument one task's
    run, so :func:`run_multi_task_experiment` refuses them; callers can
    check a config before paying for the estimator fit.
    """
    # Unset means None (False for failover).
    armed = [
        name
        for name in ("chaos_scenario", "slo", "checkpoint", "failover")
        if getattr(config, name) not in (None, False)
    ]
    if armed:
        raise ConfigurationError(
            f"a multi-task run does not support {', '.join(armed)}: "
            "they arm a single run; drop them or use run_experiment"
        )


def run_multi_task_experiment(
    config: ExperimentConfig,
    n_tasks: int = 2,
    estimator: TimingEstimator | None = None,
    phase_shift_periods: int = 7,
) -> MultiTaskResult:
    """Run ``n_tasks`` copies of the benchmark task on one system.

    Each task runs the configured workload pattern, phase-shifted by
    ``phase_shift_periods`` per task so the peaks do not align exactly;
    the *combined* load is what the machine must absorb.

    Parameters mirror :func:`repro.experiments.runner.run_experiment`;
    the policy applies to every task's manager.  A config that arms
    ``chaos_scenario``, ``slo``, ``checkpoint`` or ``failover`` raises
    :class:`~repro.errors.ConfigurationError`: those instrument a single
    run.
    """
    if n_tasks < 1:
        raise ConfigurationError(f"need at least one task, got {n_tasks}")
    check_multi_task_config(config)
    baseline = config.baseline
    if estimator is None:
        estimator = get_estimator(baseline)

    system = _system_for(baseline)
    ledger = WorkloadLedger()
    names = [p.name for p in system.processors]

    runs = []  # (executor, manager) per task
    for t in range(n_tasks):
        task = aaw_task(
            period=baseline.period,
            deadline=baseline.deadline,
            noise_sigma=baseline.noise_sigma,
        )
        # Rename so records/ledger entries are distinguishable.
        task = task.__class__(
            name=f"{task.name}{t + 1}",
            period=task.period,
            deadline=task.deadline,
            subtasks=task.subtasks,
            messages=task.messages,
        )
        # Stagger initial placements so originals spread over the machine.
        rotated = names[t % len(names):] + names[: t % len(names)]
        assignment = ReplicaAssignment(
            task, default_initial_placement(task, rotated)
        )
        base_pattern = make_pattern(
            config.pattern,
            min_tracks=config.min_tracks,
            max_tracks=config.max_tracks,
            n_periods=baseline.n_periods,
        )
        shift = t * phase_shift_periods

        def shifted(period_index: int, _p=base_pattern, _s=shift) -> float:
            return _p((period_index + _s) % max(baseline.n_periods, 1))

        executor = PeriodicTaskExecutor(
            system,
            task,
            assignment,
            workload=_ledgered_workload(shifted, ledger, task.name),
            config=ExecutorConfig(
                drop_factor=baseline.drop_factor,
                noise_stream=f"exec-noise-{t}",
            ),
        )
        task_estimator = estimator.__class__(
            task=task,
            latency_models=estimator.latency_models,
            comm_model=estimator.comm_model,
        )
        manager = _manager_for(
            config, system, executor, task_estimator, ledger.total
        )
        runs.append((executor, manager))

    horizon = baseline.n_periods * baseline.period
    for _, manager in runs:
        manager.start(baseline.n_periods)
    for executor, _ in runs:
        executor.start(baseline.n_periods)
    system.engine.run_until(horizon + (baseline.drop_factor + 1.0) * baseline.period)

    per_task = {
        executor.task.name: compute_metrics(
            system, executor, manager, 0.0, horizon
        )
        for executor, manager in runs
    }
    metrics = list(per_task.values())
    released = sum(m.periods_released for m in metrics)
    missed = sum(m.periods_missed for m in metrics)
    # Utilizations are machine-wide: every task reads the same meters.
    aggregate = ExperimentMetrics(
        missed_deadline_ratio=missed / released if released else 0.0,
        avg_cpu_utilization=metrics[0].avg_cpu_utilization,
        avg_network_utilization=metrics[0].avg_network_utilization,
        avg_replicas=sum(m.avg_replicas for m in metrics),
        max_replicas=sum(m.max_replicas for m in metrics),
        periods_released=released,
        periods_missed=missed,
        periods_aborted=sum(m.periods_aborted for m in metrics),
        rm_actions=sum(m.rm_actions for m in metrics),
    )
    return MultiTaskResult(
        per_task_metrics=per_task, aggregate=aggregate, n_tasks=n_tasks
    )
