"""Series generators for every evaluation figure (paper Figs. 8-13).

Each ``figN_*`` function returns a :class:`FigureData`: the x-axis, one
named series per curve of the original figure, and a rendering helper.
The benchmark harness times these and prints the series; EXPERIMENTS.md
records the paper-vs-measured comparison.

Extension studies (E-X1..E-X4 of DESIGN.md) live here too:
threshold-region sweep, slack-fraction ablation, utilization-threshold
ablation, deadline-strategy ablation and the deadline-reference
ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.config import (
    DEFAULT_SWEEP_UNITS,
    BaselineConfig,
    ExperimentConfig,
)
from repro.experiments.metrics import ExperimentMetrics
from repro.experiments.report import format_series_table
from repro.regression.estimator import TimingEstimator
from repro.workloads.patterns import make_pattern

#: The four panel metrics of Figs. 9/11/12, keyed by panel letter.
PANEL_METRICS = {
    "a": ("missed", "Missed deadline ratio"),
    "b": ("cpu", "Average CPU utilization"),
    "c": ("net", "Average network utilization"),
    "d": ("replicas", "Average subtask replicas"),
}

POLICIES = ("predictive", "nonpredictive")


@dataclass
class FigureData:
    """One reproduced figure (or panel set)."""

    figure_id: str
    title: str
    x_label: str
    x_values: list[float]
    series: dict[str, list[float]] = field(default_factory=dict)

    def render(self) -> str:
        """ASCII rendering for bench output / EXPERIMENTS.md."""
        return format_series_table(
            self.x_label,
            self.x_values,
            self.series,
            title=f"{self.figure_id}: {self.title}",
        )


def _metric_value(metrics: ExperimentMetrics, key: str) -> float:
    return metrics.as_dict()[key]


def _run_metrics(
    configs: list[ExperimentConfig],
    estimator: TimingEstimator | None,
    n_jobs: int = 1,
) -> list[ExperimentMetrics]:
    """Every config's metrics, in order, through the one fan-out path."""
    # Imported lazily: repro.parallel imports the experiment stack.
    from repro.parallel import run_configs_parallel

    job_results = run_configs_parallel(configs, n_jobs=n_jobs, estimator=estimator)
    return [job.result.metrics for job in job_results]


def _pattern_sweep(
    pattern: str,
    units: tuple[float, ...],
    baseline: BaselineConfig,
    estimator: TimingEstimator | None,
    n_jobs: int = 1,
) -> dict[str, list[ExperimentMetrics]]:
    configs = [
        ExperimentConfig(
            policy=policy,
            pattern=pattern,
            max_workload_units=max_units,
            baseline=baseline,
        )
        for policy in POLICIES
        for max_units in units
    ]
    metrics = _run_metrics(configs, estimator, n_jobs)
    return {
        policy: metrics[i * len(units) : (i + 1) * len(units)]
        for i, policy in enumerate(POLICIES)
    }


# ---------------------------------------------------------------------------
# Figure 8 — the workload patterns themselves
# ---------------------------------------------------------------------------

def fig8_workload_patterns(
    max_workload_units: float = 20.0,
    n_periods: int = 60,
    baseline: BaselineConfig | None = None,
) -> FigureData:
    """Figure 8: the three evaluation workload patterns over time."""
    baseline = baseline if baseline is not None else BaselineConfig()
    max_tracks = max_workload_units * 500.0
    min_tracks = baseline.min_workload_units * 500.0
    data = FigureData(
        figure_id="Figure 8",
        title="Workload patterns (tracks per period)",
        x_label="period",
        x_values=[float(i) for i in range(n_periods)],
    )
    for name in ("increasing", "decreasing", "triangular"):
        pattern = make_pattern(name, min_tracks, max_tracks, n_periods)
        data.series[name] = [pattern(i) for i in range(n_periods)]
    return data


# ---------------------------------------------------------------------------
# Figures 9-13 — the policy comparison sweeps
# ---------------------------------------------------------------------------

_PATTERN_BY_FIGURE = {
    "Figure 9": "triangular",
    "Figure 10": "triangular",
    "Figure 11": "increasing",
    "Figure 12": "decreasing",
}


def metric_panels(
    figure_id: str,
    pattern: str,
    units: tuple[float, ...] = DEFAULT_SWEEP_UNITS,
    baseline: BaselineConfig | None = None,
    estimator: TimingEstimator | None = None,
    n_jobs: int = 1,
) -> dict[str, FigureData]:
    """The four (a)-(d) panels of a Figure 9/11/12-style comparison."""
    baseline = baseline if baseline is not None else BaselineConfig()
    metrics_by_policy = _pattern_sweep(pattern, units, baseline, estimator, n_jobs)
    panels: dict[str, FigureData] = {}
    for letter, (key, label) in PANEL_METRICS.items():
        data = FigureData(
            figure_id=f"{figure_id}({letter})",
            title=f"{label} — {pattern} pattern",
            x_label="max workload (1 unit = 500 tracks)",
            x_values=list(units),
        )
        for policy in POLICIES:
            data.series[policy] = [
                _metric_value(m, key) for m in metrics_by_policy[policy]
            ]
        panels[letter] = data
    return panels


def combined_figure(
    figure_id: str,
    pattern: str,
    units: tuple[float, ...] = DEFAULT_SWEEP_UNITS,
    baseline: BaselineConfig | None = None,
    estimator: TimingEstimator | None = None,
    n_jobs: int = 1,
) -> FigureData:
    """A Figure 10/13-style combined-performance-metric comparison."""
    baseline = baseline if baseline is not None else BaselineConfig()
    metrics_by_policy = _pattern_sweep(pattern, units, baseline, estimator, n_jobs)
    data = FigureData(
        figure_id=figure_id,
        title=f"Combined performance metric — {pattern} pattern",
        x_label="max workload (1 unit = 500 tracks)",
        x_values=list(units),
    )
    for policy in POLICIES:
        data.series[policy] = [m.combined for m in metrics_by_policy[policy]]
    return data


def fig9_triangular_panels(**kwargs) -> dict[str, FigureData]:
    """Figure 9(a-d): the four metrics under the triangular pattern."""
    return metric_panels("Figure 9", "triangular", **kwargs)


def fig10_triangular_combined(**kwargs) -> FigureData:
    """Figure 10: combined metric under the triangular pattern."""
    return combined_figure("Figure 10", "triangular", **kwargs)


def fig11_increasing_panels(**kwargs) -> dict[str, FigureData]:
    """Figure 11(a-d): the four metrics under the increasing ramp."""
    return metric_panels("Figure 11", "increasing", **kwargs)


def fig12_decreasing_panels(**kwargs) -> dict[str, FigureData]:
    """Figure 12(a-d): the four metrics under the decreasing ramp."""
    return metric_panels("Figure 12", "decreasing", **kwargs)


def fig13_ramp_combined(**kwargs) -> dict[str, FigureData]:
    """Figure 13(a, b): combined metric under both ramps."""
    return {
        "a": combined_figure("Figure 13(a)", "increasing", **kwargs),
        "b": combined_figure("Figure 13(b)", "decreasing", **kwargs),
    }


# ---------------------------------------------------------------------------
# Extension and ablation studies (DESIGN.md E-X1..E-X4)
# ---------------------------------------------------------------------------

def extended_threshold_sweep(
    pattern: str = "increasing",
    units: tuple[float, ...] = (25.0, 28.0, 31.0, 34.0, 37.0, 40.0, 45.0, 50.0),
    baseline: BaselineConfig | None = None,
    estimator: TimingEstimator | None = None,
) -> FigureData:
    """E-X1: the beyond-threshold region (§5.2's "larger workload ranges").

    The paper reports that past a threshold (~28 units) the two
    algorithms' ordering fluctuates; this sweep extends the x-axis to
    make that region visible.
    """
    return combined_figure(
        "E-X1", pattern, units=units, baseline=baseline, estimator=estimator
    )


def _ablation(
    figure_id: str,
    title: str,
    x_label: str,
    x_values: list[float],
    configs: list[ExperimentConfig],
    estimator: TimingEstimator | None,
) -> FigureData:
    """One ablation figure: missed ratio, replica ratio and combined metric."""
    data = FigureData(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        x_values=x_values,
        series={"missed": [], "replica_ratio": [], "combined": []},
    )
    for metrics in _run_metrics(configs, estimator):
        data.series["missed"].append(metrics.missed_deadline_ratio)
        data.series["replica_ratio"].append(metrics.replica_ratio)
        data.series["combined"].append(metrics.combined)
    return data


def ablation_slack_fraction(
    fractions: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.4),
    pattern: str = "triangular",
    max_workload_units: float = 20.0,
    baseline: BaselineConfig | None = None,
    estimator: TimingEstimator | None = None,
) -> FigureData:
    """E-X2: sensitivity of the predictive algorithm to ``sl`` (paper: 0.2)."""
    baseline = baseline if baseline is not None else BaselineConfig()
    configs = [
        ExperimentConfig(
            policy="predictive",
            pattern=pattern,
            max_workload_units=max_workload_units,
            baseline=baseline.with_overrides(slack_fraction=sl),
        )
        for sl in fractions
    ]
    return _ablation(
        "E-X2",
        f"Slack-fraction ablation (predictive, {pattern}, "
        f"max={max_workload_units:g} units)",
        "slack fraction",
        list(fractions),
        configs,
        estimator,
    )


def ablation_utilization_threshold(
    thresholds: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.6),
    pattern: str = "triangular",
    max_workload_units: float = 20.0,
    baseline: BaselineConfig | None = None,
    estimator: TimingEstimator | None = None,
) -> FigureData:
    """E-X3: sensitivity of the non-predictive baseline to ``UT``."""
    baseline = baseline if baseline is not None else BaselineConfig()
    configs = [
        ExperimentConfig(
            policy="nonpredictive",
            pattern=pattern,
            max_workload_units=max_workload_units,
            baseline=baseline.with_overrides(utilization_threshold=ut),
        )
        for ut in thresholds
    ]
    return _ablation(
        "E-X3",
        f"Utilization-threshold ablation (non-predictive, {pattern}, "
        f"max={max_workload_units:g} units)",
        "UT",
        list(thresholds),
        configs,
        estimator,
    )


def ablation_deadline_strategy(
    strategies: tuple[str, ...] = ("sequential_eqf", "paper_eqf", "proportional"),
    pattern: str = "triangular",
    max_workload_units: float = 20.0,
    baseline: BaselineConfig | None = None,
    estimator: TimingEstimator | None = None,
) -> FigureData:
    """E-X4: the deadline-decomposition ablation (predictive policy)."""
    baseline = baseline if baseline is not None else BaselineConfig()
    configs = [
        ExperimentConfig(
            policy="predictive",
            pattern=pattern,
            max_workload_units=max_workload_units,
            baseline=baseline.with_overrides(deadline_strategy=strategy),
        )
        for strategy in strategies
    ]
    data = _ablation(
        "E-X4",
        f"Deadline-strategy ablation (predictive, {pattern}, "
        f"max={max_workload_units:g} units)",
        "strategy index",
        list(range(len(strategies))),
        configs,
        estimator,
    )
    data.strategy_names = list(strategies)  # type: ignore[attr-defined]
    return data
