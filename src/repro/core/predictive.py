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

from repro.core.allocation import (
    AllocationContext,
    AllocationOutcome,
    CandidatePolicyAdapter,
    register_policy,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PredictivePolicy(CandidatePolicyAdapter):
    """Figure 5, parameterized by the desired slack fraction.

    Attributes
    ----------
    slack_fraction:
        ``sl`` as a fraction of the stage budget (paper: 0.2).
    """

    slack_fraction: float = 0.2
    name: str = "predictive"

    def __post_init__(self) -> None:
        if not 0.0 <= self.slack_fraction < 1.0:
            raise ConfigurationError(
                f"slack_fraction must be in [0, 1), got {self.slack_fraction}"
            )

    def replicate(
        self, context: AllocationContext, subtask_index: int
    ) -> AllocationOutcome:
        """Grow ``PS(st)`` until the forecast satisfies the budget.

        Step 6's forecast is :meth:`AllocationContext.forecast_latency`
        over the current replica set, read from the same per-event
        readings step 3 selected ``p_min`` from.
        """
        assignment = context.assignment
        threshold = context.stage_threshold(subtask_index, self.slack_fraction)
        added: list[str] = []
        worst_forecast: float | None = None
        telemetry = context.system.engine.telemetry

        # Readings are frozen within the decision and every pick is the
        # head of the order past the picks before it: one walk serves all.
        blocked = context.excluded_processors.union(
            assignment.processors_of(subtask_index)
        )
        for _, name in context.system.by_utilization(blocked):
            assignment.add_replica(subtask_index, name)
            added.append(name)
            replicas = assignment.processors_of(subtask_index)
            profiler = telemetry.profiler if telemetry.enabled else None
            if profiler is not None:
                handle = profiler.begin("rm.forecast")
            worst_forecast = context.forecast_latency(subtask_index, replicas)
            if profiler is not None:
                profiler.end(handle, events=len(replicas))
            accepted = worst_forecast <= threshold
            if telemetry.enabled:
                telemetry.on_forecast(
                    context.system.engine.now,
                    subtask_index,
                    len(replicas),
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
        # Step 2: PT is empty -> FAILURE (added replicas stay).
        return AllocationOutcome(
            subtask_index=subtask_index,
            success=False,
            added_processors=tuple(added),
            forecast_latency=worst_forecast,
        )


register_policy("predictive", PredictivePolicy)
