"""Experiment execution.

:func:`run_experiment` assembles the full stack — system, benchmark
task, profiled estimator, executor, policy, resource manager — runs the
configured number of periods, and returns the §5.2 metrics.
:func:`sweep_workloads` repeats it over the Figure 9-13 x-axis.

The assembly and the finalization are independently reusable:
:func:`build_world` returns a started :class:`RunWorld` (the object
:mod:`repro.recovery` snapshots), and :func:`finalize_world` turns a
finished world into the :class:`ExperimentResult` —
``run_experiment`` is exactly ``build_world`` + ``run_until`` +
``finalize_world``, and a checkpoint-resumed run reuses the same two
halves around a restored world.  This is the one run assembly:
:func:`~repro.experiments.forecast_eval.evaluate_forecasts` drives a
``build_world`` world, and
:func:`~repro.experiments.multitask.run_multi_task_experiment` builds
its machine and per-task managers with the same private helpers.

Profiling the regression models is the expensive step, so estimators
are cached: in-process by configuration key, and optionally on disk via
:mod:`repro.regression.serialization`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace as dataclass_replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.bench.app import aaw_task, default_initial_placement
from repro.cluster.topology import System, build_system
from repro.core.allocation import get_policy
from repro.core.hardening import HardeningConfig
from repro.core.manager import AdaptiveResourceManager, RMConfig
from repro.core.nonpredictive import NonPredictivePolicy
from repro.core.predictive import PredictivePolicy
from repro.core.shutdown import ForecastAwareShutdown, LifoShutdown
from repro.errors import ConfigurationError
from repro.experiments import estimator_cache
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.history_index import RunHistoryIndex
from repro.experiments.metrics import ExperimentMetrics, compute_metrics
from repro.regression.estimator import TimingEstimator
from repro.runtime.executor import ExecutorConfig, PeriodicTaskExecutor
from repro.tasks.state import ReplicaAssignment
from repro.telemetry.hub import TelemetryHub
from repro.workloads.patterns import make_pattern

if TYPE_CHECKING:  # imported lazily at runtime: forecast_eval imports us
    from repro.chaos.scorecard import ResilienceScorecard
    from repro.experiments.forecast_eval import CalibrationReport
    from repro.telemetry.slo import SloReport

@dataclass(frozen=True)
class ExperimentResult:
    """Everything a sweep needs from one run.

    ``forecasts`` carries the in-vivo forecast-calibration report when
    the run used the predictive policy (``None`` otherwise — there are
    no Figure 5 forecasts to audit without it); ``scorecard`` carries
    the resilience scorecard when the run armed a chaos scenario.
    """

    config: ExperimentConfig
    metrics: ExperimentMetrics
    final_placement: dict[int, tuple[str, ...]]
    forecasts: "CalibrationReport | None" = None
    scorecard: "ResilienceScorecard | None" = None
    #: SLO verdicts when the run armed rules (``config.slo`` or a
    #: caller-armed hub); ``None`` otherwise.
    slo: "SloReport | None" = None
    #: SHA-256 over the run's canonical decision sequence (see
    #: :func:`repro.experiments.history_index.decision_event_key`); two
    #: runs of the same config match byte for byte iff their managers
    #: took identical decisions — the engine/sharding equivalence gates
    #: compare these instead of whole histories.
    decision_digest: str = ""


@dataclass
class RunWorld:
    """One assembled, started run — everything a snapshot must capture.

    :func:`build_world` returns one with the manager and executor
    already started; driving ``system.engine.run_until(end_time)`` and
    handing it to :func:`finalize_world` completes the experiment.
    :mod:`repro.recovery` pickles this object whole (shared references
    and the event calendar included), which is why it is a plain
    mutable dataclass of live components rather than derived views.
    """

    config: ExperimentConfig
    system: System
    task: object
    assignment: ReplicaAssignment
    executor: PeriodicTaskExecutor
    manager: AdaptiveResourceManager
    injector: object | None
    horizon: float
    #: Where ``run_experiment`` drives the engine (horizon + cooldown).
    end_time: float
    #: Armed when ``config.checkpoint`` is set.
    checkpointer: "object | None" = None
    #: Armed when ``config.failover`` is set.
    failover: "object | None" = None

    @property
    def controller(self) -> AdaptiveResourceManager:
        """The manager currently in charge (standby after a takeover)."""
        if self.failover is not None:
            return self.failover.active  # type: ignore[attr-defined]
        return self.manager


def _make_policy(config: ExperimentConfig):
    """Instantiate the configured step-2 allocator with Table 1 parameters.

    Every registered policy is an :class:`~repro.core.allocation.Allocator`
    the manager runs as is; user-registered names come from
    :func:`~repro.core.allocation.get_policy`, which rejects factories
    whose product has no ``allocate`` method.
    """
    if config.policy == "predictive":
        return PredictivePolicy(slack_fraction=config.baseline.slack_fraction)
    if config.policy == "nonpredictive":
        return NonPredictivePolicy(
            utilization_threshold=config.baseline.utilization_threshold
        )
    if config.policy in ("market", "fairshare", "oracle"):
        # The zoo reuses Figure 5's slack target as its acceptance bound.
        return get_policy(
            config.policy, slack_fraction=config.baseline.slack_fraction
        )
    # Fall through to the registry for user-registered policies.
    return get_policy(config.policy)


def _system_for(
    baseline: BaselineConfig,
    seed_offset: int = 0,
    telemetry: TelemetryHub | None = None,
) -> System:
    """The simulated machine a baseline describes (seed + offset)."""
    return build_system(
        n_processors=baseline.n_nodes,
        bandwidth_bps=baseline.bandwidth_bps,
        discipline=baseline.discipline,
        quantum=baseline.quantum,
        utilization_window=baseline.utilization_window,
        message_overhead_bytes=baseline.message_overhead_bytes,
        network_mode=baseline.network_mode,
        message_loss_probability=baseline.message_loss_probability,
        speed_factors=baseline.speed_factors,
        seed=baseline.seed + seed_offset,
        telemetry=telemetry,
    )


def _manager_for(
    config: ExperimentConfig,
    system: System,
    executor: PeriodicTaskExecutor,
    estimator: TimingEstimator,
    total_workload_fn: Callable[[], float] | None = None,
) -> AdaptiveResourceManager:
    """The configured resource manager for one task's executor.

    Policy, RM tunables, shutdown strategy and hardening all come from
    ``config``; ``total_workload_fn`` couples eq. 5 to the other tasks
    of a multi-task run.
    """
    baseline = config.baseline
    shutdown_strategy = (
        ForecastAwareShutdown(slack_fraction=baseline.slack_fraction)
        if baseline.shutdown_strategy == "forecast_aware"
        else LifoShutdown()
    )
    return AdaptiveResourceManager(
        system,
        executor,
        estimator,
        policy=_make_policy(config),
        config=RMConfig(
            slack_fraction=baseline.slack_fraction,
            shutdown_slack_fraction=baseline.shutdown_slack_fraction,
            monitor_window=baseline.monitor_window,
            deadline_strategy=baseline.deadline_strategy,
            initial_d_tracks=config.min_tracks,
            initial_utilization=0.1,
        ),
        shutdown_strategy=shutdown_strategy,
        total_workload_fn=total_workload_fn,
        hardening=HardeningConfig() if config.hardened else None,
    )


def build_world(
    config: ExperimentConfig,
    estimator: TimingEstimator | None = None,
    seed_offset: int = 0,
    telemetry: TelemetryHub | None = None,
) -> RunWorld:
    """Assemble and start one experiment, returning its live world.

    Everything through ``manager.start`` / ``executor.start`` happens
    here — including arming chaos, the checkpointer
    (``config.checkpoint``) and controller failover
    (``config.failover``).  The caller drives
    ``world.system.engine.run_until(world.end_time)`` and then
    :func:`finalize_world`.
    """
    baseline = config.baseline
    if estimator is None:
        estimator = estimator_cache.get_estimator(baseline)
    if config.slo is not None and telemetry is None:
        # SLO rules need a live event stream; arm an internal hub so
        # callers that never touch telemetry still get verdicts.
        telemetry = TelemetryHub()

    system = _system_for(baseline, seed_offset, telemetry)
    task = aaw_task(
        period=baseline.period,
        deadline=baseline.deadline,
        noise_sigma=baseline.noise_sigma,
    )
    if estimator.task.n_subtasks != task.n_subtasks:
        raise ConfigurationError(
            "estimator was fitted for a different task shape"
        )
    placement = default_initial_placement(
        task, [p.name for p in system.processors]
    )
    assignment = ReplicaAssignment(task, placement)
    pattern = make_pattern(
        config.pattern,
        min_tracks=config.min_tracks,
        max_tracks=config.max_tracks,
        n_periods=baseline.n_periods,
    )
    horizon = baseline.n_periods * baseline.period
    injector = None
    rm_estimator = estimator
    workload = pattern
    if config.chaos_scenario is not None:
        # Imported lazily: repro.chaos sits above experiments in the
        # layering contract (it wires scenarios *into* runs), so the
        # fault-free path must not pay for the import.
        from repro.chaos import ChaosInjector, get_scenario

        injector = ChaosInjector(
            system, get_scenario(config.chaos_scenario)
        ).arm(horizon)
        workload = injector.wrap_workload(pattern)
        rm_estimator = injector.wrap_estimator(estimator)
    executor = PeriodicTaskExecutor(
        system,
        task,
        assignment,
        workload=workload,
        config=ExecutorConfig(drop_factor=baseline.drop_factor),
    )
    manager = _manager_for(config, system, executor, rm_estimator)
    hub = system.engine.telemetry
    if config.slo is not None and hub.enabled and hub.slo is None:
        hub.arm_slo(config.slo)
    if hub.enabled:
        hub.set_run_meta(
            policy=config.policy,
            pattern=config.pattern,
            max_units=config.max_workload_units,
            n_periods=baseline.n_periods,
            n_nodes=baseline.n_nodes,
            seed=baseline.seed + seed_offset,
            horizon=horizon,
        )
    manager.start(baseline.n_periods)
    executor.start(baseline.n_periods)
    end_time = horizon + (baseline.drop_factor + 1.0) * baseline.period
    world = RunWorld(
        config=config,
        system=system,
        task=task,
        assignment=assignment,
        executor=executor,
        manager=manager,
        injector=injector,
        horizon=horizon,
        end_time=end_time,
    )
    if injector is not None:
        # The rm_crash fault actually kills the controller: without
        # failover armed, no further adaptation happens (the baseline
        # the failover gate compares against).
        injector.on_rm_crash = manager.on_rm_crash
    if config.failover:
        # Imported lazily: repro.recovery sits above experiments in the
        # layering contract (it snapshots whole RunWorlds).
        from repro.recovery.failover import FailoverCoordinator

        coordinator = FailoverCoordinator(manager).arm(baseline.n_periods)
        world.failover = coordinator
        if injector is not None:
            injector.on_rm_crash = coordinator.on_rm_crash
    if config.checkpoint is not None:
        from repro.recovery.checkpoint import Checkpointer

        world.checkpointer = Checkpointer(world, config.checkpoint).arm()
    return world


def finalize_world(world: RunWorld) -> ExperimentResult:
    """Compute one finished world's metrics, reports, and digest."""
    config = world.config
    baseline = config.baseline
    system = world.system
    executor = world.executor
    manager = world.controller
    horizon = world.horizon
    hub = system.engine.telemetry
    # One indexed pass over the run's histories feeds the metrics and
    # the calibration pairing below (no consumer rescans the history).
    index = RunHistoryIndex(executor, manager).update()
    metrics = compute_metrics(system, executor, manager, 0.0, horizon, index=index)
    if hub.enabled:
        for processor in system.processors:
            hub.registry.gauge(
                "proc.utilization", {"processor": processor.name}
            ).set(processor.meter.busy_between(0.0, horizon) / horizon)
    forecasts: "CalibrationReport | None" = None
    if config.policy == "predictive":
        # Imported lazily: forecast_eval imports this module.
        from repro.experiments.forecast_eval import calibration_from_run

        forecasts = calibration_from_run(
            world.task, executor, manager, baseline.n_periods, index=index
        )
    scorecard: "ResilienceScorecard | None" = None
    if world.injector is not None:
        from repro.chaos import compute_scorecard

        injector = world.injector
        scorecard = compute_scorecard(
            executor.completed_records(),
            injector.fault_log,
            horizon,
            rm_actions=manager.actions_taken(),
            faults_by_kind=injector.faults_by_kind(),
        )
        scorecard = _with_failover_fields(scorecard, world)
        if hub.enabled:
            scorecard.to_registry(hub.registry)
    slo_report: "SloReport | None" = None
    if hub.slo is not None:
        # One final evaluation at the end of the cooldown window so the
        # tail of the run is covered, then freeze the verdicts.
        hub.slo.evaluate(system.engine.now)
        slo_report = hub.slo.report()
    return ExperimentResult(
        config=config,
        metrics=metrics,
        final_placement=world.assignment.snapshot(),
        forecasts=forecasts,
        scorecard=scorecard,
        decision_digest=index.decision_digest,
        slo=slo_report,
    )


def _with_failover_fields(
    scorecard: "ResilienceScorecard", world: RunWorld
) -> "ResilienceScorecard":
    """Fill the scorecard's controller-crash fields from the run."""
    injector = world.injector
    assert injector is not None
    horizon = world.horizon
    crash_times = [
        injection.time
        for injection in injector.fault_log
        if injection.kind == "rm_crash" and injection.time < horizon
    ]
    if not crash_times:
        return scorecard
    coordinator = world.failover
    if coordinator is not None:
        return dataclass_replace(
            scorecard,
            rm_crashes=len(crash_times),
            takeover_latency_s=coordinator.takeover_latency_s,
            missed_rm_cycles=coordinator.missed_cycles(),
        )
    # No failover: every monitoring boundary after the first crash was
    # silently skipped.
    crash_t = min(crash_times)
    period = world.config.baseline.period
    missed = sum(
        1
        for c in range(world.config.baseline.n_periods)
        if c * period > crash_t
    )
    return dataclass_replace(
        scorecard,
        rm_crashes=len(crash_times),
        missed_rm_cycles=missed,
    )


def run_experiment(
    config: ExperimentConfig,
    estimator: TimingEstimator | None = None,
    seed_offset: int = 0,
    telemetry: TelemetryHub | None = None,
) -> ExperimentResult:
    """Run one experiment end to end and compute its metrics.

    Parameters
    ----------
    config:
        The experiment descriptor.
    estimator:
        A pre-built estimator (profiled once, shared across a sweep).
        Built on demand when omitted.
    seed_offset:
        Added to the baseline seed for replication studies.
    telemetry:
        Optional :class:`~repro.telemetry.hub.TelemetryHub`; instrumented
        components report to it (and write their trace records to its
        sink, if any) and the run's per-processor utilizations are
        recorded as gauges before returning.  The caller owns the hub
        (and closes its sink).
    """
    world = build_world(
        config,
        estimator=estimator,
        seed_offset=seed_offset,
        telemetry=telemetry,
    )
    # Let stragglers finish or hit the shedding watchdog.
    world.system.engine.run_until(world.end_time)
    return finalize_world(world)


def sweep_workloads(
    policy: str,
    pattern: str,
    units: tuple[float, ...],
    baseline: BaselineConfig | None = None,
    estimator: TimingEstimator | None = None,
    n_jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> list[ExperimentResult]:
    """Run one experiment per maximum-workload point (a figure's x-axis).

    With ``n_jobs > 1`` the points are fanned out over a process pool
    (:mod:`repro.parallel`); the parent fits/warms the estimator cache
    once, workers load the identical models by key, and the results come
    back in sweep order — bit-identical to a serial run.
    """
    baseline = baseline if baseline is not None else BaselineConfig()
    configs = [
        ExperimentConfig(
            policy=policy,
            pattern=pattern,
            max_workload_units=max_units,
            baseline=baseline,
        )
        for max_units in units
    ]
    if n_jobs != 1:
        # Imported lazily: repro.parallel imports this module.
        from repro.parallel import run_configs_parallel

        job_results = run_configs_parallel(
            configs, n_jobs=n_jobs, cache_dir=cache_dir, estimator=estimator
        )
        return [
            ExperimentResult(
                config=jr.spec.config,
                metrics=jr.metrics,
                final_placement=jr.final_placement,
                decision_digest=jr.decision_digest,
            )
            for jr in job_results
        ]
    if estimator is None:
        estimator = estimator_cache.get_estimator(baseline, cache_dir=cache_dir)
    return [run_experiment(config, estimator=estimator) for config in configs]
