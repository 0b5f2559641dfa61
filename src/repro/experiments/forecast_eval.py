"""In-vivo forecast calibration (the paper's core mechanism, audited).

The predictive algorithm is exactly as good as its forecasts.  This
module runs an experiment and, for every replication decision the
manager takes, pairs Figure 5's *forecast* stage latency (the value
that satisfied the budget check) with the stage latency actually
*observed* in the following periods — then summarizes the calibration
(mean error, mean absolute percentage error, pessimism rate).

A well-calibrated forecast errs slightly on the pessimistic side
(observed <= forecast) so the 20 % slack target translates into met
deadlines; a systematically optimistic forecast would convert directly
into misses.

:func:`evaluate_forecasts` assembles its run with
:func:`repro.experiments.runner.build_world`, the assembly every
experiment uses, so the audited run is the one
:func:`~repro.experiments.runner.run_experiment` would execute for the
same config: on the static estimator its report equals
``run_experiment(config).forecasts``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.estimator_cache import get_estimator
from repro.experiments.history_index import RunHistoryIndex
from repro.regression.estimator import TimingEstimator


@dataclass(frozen=True)
class ForecastSample:
    """One decision's forecast paired with the realized stage latency."""

    time: float
    subtask_index: int
    replica_count: int
    forecast_s: float
    observed_s: float

    @property
    def error_s(self) -> float:
        """Signed error (positive = pessimistic forecast)."""
        return self.forecast_s - self.observed_s

    @property
    def absolute_percentage_error(self) -> float:
        """|forecast - observed| / observed."""
        return abs(self.error_s) / max(self.observed_s, 1e-9)


@dataclass(frozen=True)
class CalibrationReport:
    """Aggregate calibration statistics over a run's decisions."""

    samples: tuple[ForecastSample, ...]
    missed_deadline_ratio: float = 0.0

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mape(self) -> float:
        """Mean absolute percentage error of the forecasts."""
        if not self.samples:
            return 0.0
        return float(
            np.mean([s.absolute_percentage_error for s in self.samples])
        )

    @property
    def mean_error_s(self) -> float:
        """Mean signed error (positive = pessimistic on average)."""
        if not self.samples:
            return 0.0
        return float(np.mean([s.error_s for s in self.samples]))

    @property
    def pessimism_rate(self) -> float:
        """Fraction of decisions whose forecast was >= the observation."""
        if not self.samples:
            return 0.0
        return float(np.mean([s.error_s >= 0.0 for s in self.samples]))


def calibration_from_run(
    task,
    executor,
    manager,
    n_periods: int,
    settle_periods: int = 1,
    index: RunHistoryIndex | None = None,
) -> CalibrationReport:
    """Pair a finished run's forecasts with the realized stage latencies.

    Works on the artefacts any predictive-policy run already produces
    (the executor's period records and the manager's decision history),
    so callers that have just run an experiment — :func:`evaluate_forecasts`
    below, or :func:`repro.experiments.runner.run_experiment` attaching
    calibration to its result — share one pairing implementation.
    The forecast decisions, the period lookup and the missed-deadline
    counts come from the run's
    :class:`~repro.experiments.history_index.RunHistoryIndex` (built ad
    hoc when not passed), so the missed-deadline ratio is the §5.2
    metric's over ``n_periods`` and nothing rescans ``manager.history``.

    For each manager step that replicated subtask ``j`` with forecast
    ``f``, the observation is the mean stage latency of ``j`` over the
    next periods that ran with the *same* replica count (stopping at the
    next placement change).  ``settle_periods`` skips the first period
    after the decision (the stage may already be mid-flight).
    """
    if index is None:
        index = RunHistoryIndex(executor, manager)
    index.update()
    samples: list[ForecastSample] = []
    for time, subtask_index, replica_count, forecast_s in (
        index.forecast_decisions()
    ):
        decision_period = int(round(time / task.period))
        observed: list[float] = []
        for period in range(decision_period + settle_periods, n_periods):
            record = index.record_of_period(period)
            if record is None:
                continue
            stage = record.stage(subtask_index)
            if stage is None or stage.stage_latency is None:
                continue
            if stage.replica_count != replica_count:
                break  # the placement changed; stop the window
            observed.append(stage.stage_latency)
            if len(observed) >= 3:
                break
        if observed:
            samples.append(
                ForecastSample(
                    time=time,
                    subtask_index=subtask_index,
                    replica_count=replica_count,
                    forecast_s=forecast_s,
                    observed_s=float(np.mean(observed)),
                )
            )
    released, missed, _ = index.period_counts(n_periods * task.period)
    return CalibrationReport(
        samples=tuple(samples),
        missed_deadline_ratio=missed / released if released else 0.0,
    )


def evaluate_forecasts(
    config: ExperimentConfig,
    estimator: TimingEstimator | None = None,
    settle_periods: int = 1,
    online: bool = False,
) -> CalibrationReport:
    """Run the predictive policy and audit every replication forecast.

    For each manager step that replicated subtask ``j`` with forecast
    ``f``, the observation is the mean stage latency of ``j`` over the
    next periods that ran with the *same* replica count (stopping at the
    next placement change).  ``settle_periods`` skips the first period
    after the decision (the stage may already be mid-flight).

    With ``online=True`` the estimator is wrapped in
    :class:`repro.regression.online.OnlineCorrectedEstimator`, so the
    audit measures the *refined* forecasts (extension E-X12).
    """
    if config.policy != "predictive":
        raise ConfigurationError(
            "forecast evaluation requires the predictive policy, got "
            f"{config.policy!r}"
        )
    if estimator is None:
        estimator = get_estimator(config.baseline)
    if online:
        from repro.regression.online import OnlineCorrectedEstimator

        estimator = OnlineCorrectedEstimator(base=estimator)
    world = runner.build_world(config, estimator)
    world.system.engine.run_until(world.end_time)
    return calibration_from_run(
        world.task,
        world.executor,
        world.controller,
        config.baseline.n_periods,
        settle_periods=settle_periods,
    )
