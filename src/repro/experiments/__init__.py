"""Evaluation harness (paper §5).

* :mod:`repro.experiments.config` — Table 1 baseline parameters and the
  experiment descriptor.
* :mod:`repro.experiments.metrics` — the four §5.2 metrics plus the
  combined performance metric ``C``.
* :mod:`repro.experiments.runner` — builds a system, runs one
  experiment, sweeps maximum workloads.
* :mod:`repro.experiments.figures` — series generators for every figure
  (9-13) and the extension/ablation studies.
* :mod:`repro.experiments.tables` — Table 1/2/3 reproduction.
* :mod:`repro.experiments.report` — plain-text rendering used by the
  benchmark harness and EXPERIMENTS.md.
"""

from repro.experiments.breakdown import LatencyBreakdown, compute_breakdown
from repro.experiments.campaign import (
    CampaignResult,
    CampaignSpec,
    run_campaign,
)
from repro.experiments.capacity import CapacityPlan, plan_capacity
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.forecast_eval import CalibrationReport, evaluate_forecasts
from repro.experiments.metrics import ExperimentMetrics, compute_metrics
from repro.experiments.multitask import MultiTaskResult, run_multi_task_experiment
from repro.experiments.paper_report import PaperReport, generate_report
from repro.experiments.replication import ReplicatedResult, replicate_experiment
from repro.experiments.runner import (
    ExperimentResult,
    run_experiment,
    sweep_workloads,
)
from repro.experiments.timeline import Timeline, extract_timeline, render_timeline
from repro.experiments.validation import validate_reproduction

__all__ = [
    "BaselineConfig",
    "CalibrationReport",
    "CampaignResult",
    "CampaignSpec",
    "CapacityPlan",
    "ExperimentConfig",
    "ExperimentMetrics",
    "ExperimentResult",
    "LatencyBreakdown",
    "MultiTaskResult",
    "PaperReport",
    "ReplicatedResult",
    "Timeline",
    "compute_breakdown",
    "compute_metrics",
    "evaluate_forecasts",
    "extract_timeline",
    "generate_report",
    "plan_capacity",
    "render_timeline",
    "replicate_experiment",
    "run_campaign",
    "run_experiment",
    "run_multi_task_experiment",
    "sweep_workloads",
    "validate_reproduction",
]

