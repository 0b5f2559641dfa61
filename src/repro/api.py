"""The stable public API of the repro distribution.

Everything a script, notebook, or downstream package should need is
re-exported here under one flat namespace::

    from repro.api import BaselineConfig, ExperimentConfig, fit_estimator, run_experiment

    baseline = BaselineConfig()
    estimator = fit_estimator(baseline)
    result = run_experiment(
        ExperimentConfig(
            policy="predictive", pattern="triangular",
            max_workload_units=20.0, baseline=baseline,
        ),
        estimator=estimator,
    )

``__all__`` below *is* the compatibility contract: names listed there
follow deprecation policy (a release of DeprecationWarning before
removal) and are pinned by ``tests/test_public_api.py`` against a
checked-in snapshot.  Deep imports (``repro.core.manager``, ...) keep
working but carry no such promise — the ``repro lint`` LAY-FACADE rule
keeps the shipped examples and scripts off them.

:func:`fit_estimator` is the single estimator entry point: a cached
fit for a baseline configuration, or a fresh profiling campaign for a
custom ``task``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.bench.app import aaw_task, default_initial_placement
from repro.bench.datasets import (
    PAPER_TABLE2_COEFFICIENTS,
    paper_comm_model,
    paper_latency_model,
)
from repro.bench.ground_truth import LinearServiceModel, QuadraticServiceModel
from repro.bench.profiler import (
    profile_buffer_delay,
    profile_subtask,
)
from repro.bench.profiler import (
    build_estimator as _build_estimator,
)
from repro.chaos import (
    ChaosInjector,
    ChaosScenario,
    ResilienceScorecard,
    compute_scorecard,
    get_scenario,
    run_chaos_experiment,
    scenario_names,
)
from repro.cluster.background import BackgroundLoad
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.cluster.processor import Processor
from repro.cluster.topology import System, build_system
from repro.core.allocation import (
    AllocationContext,
    AllocationOutcome,
    AllocationPlan,
    Allocator,
    CandidatePolicyAdapter,
    get_policy,
    register_policy,
    registered_policies,
)
from repro.core.deadlines import assign_deadlines
from repro.core.hardening import ForecastCircuitBreaker, HardeningConfig
from repro.core.manager import AdaptiveResourceManager, RMConfig
from repro.core.nonpredictive import NonPredictivePolicy
from repro.core.predictive import PredictivePolicy
from repro.core.shutdown import shut_down_a_replica
from repro.core.zoo import (
    FairShareAllocator,
    MarketAllocator,
    OracleAllocator,
)
from repro.errors import ChaosError, ConfigurationError, ReproError
from repro.experiments.breakdown import LatencyBreakdown, compute_breakdown
from repro.experiments.campaign import (
    CampaignFailure,
    CampaignResult,
    CampaignSpec,
    rollup_campaign,
    run_campaign,
)
from repro.experiments.capacity import CapacityPlan, plan_capacity
from repro.experiments.config import (
    DEFAULT_SWEEP_UNITS,
    BaselineConfig,
    ExperimentConfig,
)
from repro.experiments.estimator_cache import get_estimator as _get_estimator
from repro.experiments.export import (
    SCHEMA_VERSION,
    check_schema_version,
    metrics_from_json,
    metrics_to_json,
)
from repro.experiments.forecast_eval import CalibrationReport, evaluate_forecasts
from repro.experiments.history_index import RunHistoryIndex
from repro.experiments.metrics import (
    ExperimentMetrics,
    compute_metrics,
    regret_by_policy,
)
from repro.experiments.replication import ReplicatedResult, replicate_experiment
from repro.experiments.report import format_sparkline, format_table
from repro.experiments.runner import (
    ExperimentResult,
    run_experiment,
    sweep_workloads,
)
from repro.experiments.timeline import Timeline, extract_timeline, render_timeline
from repro.experiments.validation import validate_reproduction
from repro.experiments.journal import CampaignJournal
from repro.parallel import JobFailure, ShardPlan, plan_shards, run_sharded
from repro.recovery import (
    Checkpointer,
    FailoverCoordinator,
    SimSnapshot,
    restore_snapshot,
    resume_experiment,
    take_snapshot,
)
from repro.regression.estimator import TimingEstimator
from repro.regression.latency_model import ExecutionLatencyModel
from repro.regression.serialization import (
    latency_model_from_dict,
    latency_model_to_dict,
)
from repro.runtime.executor import PeriodicTaskExecutor
from repro.sim.engine import Engine
from repro.tasks.builder import TaskBuilder
from repro.tasks.model import PeriodicTask
from repro.tasks.state import ReplicaAssignment
from repro.telemetry import (
    DEFAULT_SLO_RULES,
    CampaignRollup,
    JsonlTraceSink,
    MetricsRegistry,
    RunProfiler,
    SloEngine,
    SloReport,
    SloRule,
    TelemetryHub,
    load_slo_rules,
    merge_rollups,
    render_report,
    write_report,
)
from repro.workloads.patterns import (
    BurstyPattern,
    StepPattern,
    make_pattern,
    mission_profile,
)
from repro.workloads.sensors import TrackStreamGenerator


def fit_estimator(
    baseline: BaselineConfig | None = None,
    *,
    task: PeriodicTask | None = None,
    cache_dir: str | Path | None = None,
    repetitions: int = 2,
    **profile_kwargs: Any,
) -> TimingEstimator:
    """Profile the benchmark and fit the paper's regression models.

    The one estimator entry point, in two modes:

    * ``fit_estimator(baseline)`` — the fit for a
      :class:`BaselineConfig` (defaults to Table 1), served from the
      in-process cache, then the optional ``cache_dir`` disk cache,
      then a fresh §4.2.1 profiling campaign.
    * ``fit_estimator(task=task, ...)`` — an uncached campaign against
      a custom :class:`PeriodicTask`; extra keywords (``u_grid``,
      ``d_grid_tracks``, ``seed``, ``bandwidth_bps``, ...) go straight
      to the profiler.

    Giving both a baseline and a task — or profiling-grid keywords
    without a task — raises :class:`ConfigurationError`.
    """
    if task is not None:
        if baseline is not None:
            raise ConfigurationError(
                "fit_estimator takes a baseline or a task, not both"
            )
        if cache_dir is not None:
            raise ConfigurationError(
                "cache_dir applies to baseline fits only; custom-task "
                "fits are never cached"
            )
        return _build_estimator(task, repetitions=repetitions, **profile_kwargs)
    if profile_kwargs:
        raise ConfigurationError(
            f"profiling-grid keyword(s) {sorted(profile_kwargs)} require "
            "a task=... fit"
        )
    if baseline is None:
        baseline = BaselineConfig()
    return _get_estimator(baseline, cache_dir=cache_dir, repetitions=repetitions)


__all__ = [
    "AdaptiveResourceManager",
    "AllocationContext",
    "AllocationOutcome",
    "AllocationPlan",
    "Allocator",
    "BackgroundLoad",
    "BaselineConfig",
    "BurstyPattern",
    "CalibrationReport",
    "CampaignFailure",
    "CampaignJournal",
    "CampaignResult",
    "CampaignRollup",
    "CampaignSpec",
    "CandidatePolicyAdapter",
    "CapacityPlan",
    "ChaosError",
    "ChaosInjector",
    "ChaosScenario",
    "Checkpointer",
    "ConfigurationError",
    "DEFAULT_SLO_RULES",
    "DEFAULT_SWEEP_UNITS",
    "Engine",
    "ExecutionLatencyModel",
    "ExperimentConfig",
    "ExperimentMetrics",
    "ExperimentResult",
    "FailoverCoordinator",
    "FailureEvent",
    "FailureInjector",
    "FairShareAllocator",
    "ForecastCircuitBreaker",
    "HardeningConfig",
    "JobFailure",
    "JsonlTraceSink",
    "LatencyBreakdown",
    "LinearServiceModel",
    "MarketAllocator",
    "MetricsRegistry",
    "NonPredictivePolicy",
    "OracleAllocator",
    "PAPER_TABLE2_COEFFICIENTS",
    "PeriodicTask",
    "PeriodicTaskExecutor",
    "PredictivePolicy",
    "Processor",
    "QuadraticServiceModel",
    "RMConfig",
    "ReplicaAssignment",
    "ReplicatedResult",
    "ReproError",
    "ResilienceScorecard",
    "RunHistoryIndex",
    "RunProfiler",
    "SCHEMA_VERSION",
    "ShardPlan",
    "SimSnapshot",
    "SloEngine",
    "SloReport",
    "SloRule",
    "StepPattern",
    "System",
    "TaskBuilder",
    "TelemetryHub",
    "Timeline",
    "TimingEstimator",
    "TrackStreamGenerator",
    "aaw_task",
    "assign_deadlines",
    "build_system",
    "check_schema_version",
    "compute_breakdown",
    "compute_metrics",
    "compute_scorecard",
    "default_initial_placement",
    "evaluate_forecasts",
    "extract_timeline",
    "fit_estimator",
    "format_sparkline",
    "format_table",
    "get_policy",
    "get_scenario",
    "latency_model_from_dict",
    "latency_model_to_dict",
    "load_slo_rules",
    "make_pattern",
    "merge_rollups",
    "metrics_from_json",
    "metrics_to_json",
    "mission_profile",
    "paper_comm_model",
    "paper_latency_model",
    "plan_capacity",
    "plan_shards",
    "profile_buffer_delay",
    "profile_subtask",
    "register_policy",
    "registered_policies",
    "regret_by_policy",
    "render_report",
    "render_timeline",
    "replicate_experiment",
    "restore_snapshot",
    "resume_experiment",
    "rollup_campaign",
    "run_campaign",
    "run_chaos_experiment",
    "run_experiment",
    "run_sharded",
    "scenario_names",
    "shut_down_a_replica",
    "sweep_workloads",
    "take_snapshot",
    "validate_reproduction",
    "write_report",
]

