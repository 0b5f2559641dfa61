"""The predictive allocation algorithm — paper Figure 5.

``ReplicateSubtask(st, t)`` grows the replica set one processor at a
time, always taking the least-utilized processor not already hosting a
replica, and after each growth step *forecasts* every replica's stage
latency with the regression models:

* each of the ``k`` replicas will process ``d / k`` items
  (``d = ds(T, c)``, the current period's workload);
* its execution latency is forecast by eq. 3 at the hosting processor's
  *observed* utilization;
* its incoming message (from the predecessor subtask) is forecast by
  eqs. 4-6 at the current total periodic workload.

Growth stops as soon as every replica's forecast ``eex + ecd`` fits
within the stage budget minus the desired slack ``sl = slack_fraction *
budget`` (paper: 20 %); it fails — keeping the replicas added so far,
as the pseudo-code does — when no processors remain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.allocation import (
    AllocationOutcome,
    AllocationRequest,
    register_policy,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PredictivePolicy:
    """Figure 5, parameterized by the desired slack fraction.

    Attributes
    ----------
    slack_fraction:
        ``sl`` as a fraction of the stage budget (paper: 0.2).
    utilization_window:
        Optional override of the window used to read ``ut(p, t)``.
    """

    slack_fraction: float = 0.2
    utilization_window: float | None = None
    name: str = "predictive"

    def __post_init__(self) -> None:
        if not 0.0 <= self.slack_fraction < 1.0:
            raise ConfigurationError(
                f"slack_fraction must be in [0, 1), got {self.slack_fraction}"
            )

    def replicate(self, request: AllocationRequest) -> AllocationOutcome:
        """Grow ``PS(st)`` until the forecast satisfies the budget."""
        subtask_index = request.subtask_index
        budget = request.deadlines.stage_budget(subtask_index)
        threshold = budget - self.slack_fraction * budget
        added: list[str] = []
        worst_forecast: float | None = None
        telemetry = request.system.engine.telemetry

        while True:
            hosting = set(request.assignment.processors_of(subtask_index))
            exclude = (
                hosting | request.excluded_processors
                if request.excluded_processors
                else hosting
            )
            candidate = request.system.least_utilized(
                exclude=exclude, window=self.utilization_window
            )
            if candidate is None:
                # Step 2: PT is empty -> FAILURE (added replicas stay).
                return AllocationOutcome(
                    subtask_index=subtask_index,
                    success=False,
                    added_processors=tuple(added),
                    forecast_latency=worst_forecast,
                )
            request.assignment.add_replica(subtask_index, candidate.name)
            added.append(candidate.name)
            profiler = telemetry.profiler if telemetry.enabled else None
            if profiler is not None:
                handle = profiler.begin("rm.forecast")
            worst_forecast = self._forecast_worst_replica(request)
            if profiler is not None:
                profiler.end(
                    handle,
                    events=request.assignment.replica_count(subtask_index),
                )
            accepted = worst_forecast <= threshold
            if telemetry.enabled:
                telemetry.on_forecast(
                    request.system.engine.now,
                    subtask_index,
                    request.assignment.replica_count(subtask_index),
                    worst_forecast,
                    threshold,
                    accepted,
                )
            if accepted:
                return AllocationOutcome(
                    subtask_index=subtask_index,
                    success=True,
                    added_processors=tuple(added),
                    forecast_latency=worst_forecast,
                )
            # Step 6.6.1: forecast too slow -> add another replica.

    def _forecast_worst_replica(self, request: AllocationRequest) -> float:
        """Max forecast ``eex + ecd`` over the current replica set (step 6).

        ``ecd`` depends only on the share and the total workload, so it
        is evaluated once; the per-replica ``eex`` sweep is batched into
        one NumPy call when the estimator supports it (bit-identical to
        the scalar loop — see
        :meth:`repro.regression.latency_model.ExecutionLatencyModel.predict_seconds_many`).
        Replica readings come from the system's per-event memo, the same
        readings step 3 selected ``p_min`` from.
        """
        subtask_index = request.subtask_index
        replicas = request.assignment.processors_of(subtask_index)
        share = request.d_tracks / len(replicas)
        if subtask_index > 1:
            ecd = request.estimator.ecd_seconds(
                subtask_index - 1, share, request.total_periodic_tracks
            )
        else:
            ecd = 0.0
        utilizations = request.system.utilizations_of(
            replicas, window=self.utilization_window
        )
        guard = request.reading_guard
        if guard is not None:
            utilizations = [guard(u) for u in utilizations]
        batch = getattr(request.estimator, "eex_seconds_many", None)
        if batch is not None:
            eex_arr = batch(subtask_index, share, utilizations)
            return max(0.0, float(np.max(eex_arr + ecd)))
        worst = 0.0
        for utilization in utilizations:
            eex = request.estimator.eex_seconds(subtask_index, share, utilization)
            worst = max(worst, eex + ecd)
        return worst


register_policy("predictive", PredictivePolicy)
