"""Additional allocation policies beyond the paper's two.

These bracket the design space and serve the extension studies:

* :class:`NoAdaptationPolicy` — never replicates.  The lower bound on
  resource usage and the upper bound on misses; shows what the
  monitoring/adaptation machinery buys at all.
* :class:`StaticMaxPolicy` — replicates a candidate onto *every*
  remaining processor unconditionally (the non-predictive baseline with
  ``UT = 100 %``).  The upper bound on resource usage.
* :class:`HybridPolicy` — the predictive Figure 5 loop, but falling
  back to the non-predictive heuristic when the forecast cannot be
  satisfied (Figure 5 returns FAILURE).  A natural "belt and braces"
  variant: forecasting when it can help, greed when the model says the
  budget is unreachable anyway.

All are registered in the policy registry, so experiment configs can
select them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.allocation import (
    AllocationContext,
    AllocationOutcome,
    CandidatePolicyAdapter,
    register_policy,
)
from repro.core.nonpredictive import NonPredictivePolicy
from repro.core.predictive import PredictivePolicy


@dataclass(frozen=True)
class NoAdaptationPolicy(CandidatePolicyAdapter):
    """Never replicate; candidates are acknowledged and ignored."""

    name: str = "noadapt"

    def replicate(
        self, context: AllocationContext, subtask_index: int
    ) -> AllocationOutcome:
        """Report FAILURE without touching the placement."""
        return AllocationOutcome(subtask_index=subtask_index, success=False)


@dataclass(frozen=True)
class StaticMaxPolicy(CandidatePolicyAdapter):
    """Replicate a candidate onto every remaining processor."""

    name: str = "staticmax"

    def replicate(
        self, context: AllocationContext, subtask_index: int
    ) -> AllocationOutcome:
        """Grab the whole machine for the candidate subtask."""
        hosting = set(context.assignment.processors_of(subtask_index))
        added: list[str] = []
        for processor in context.system.live_processors():
            if processor.name not in hosting:
                context.assignment.add_replica(subtask_index, processor.name)
                added.append(processor.name)
        return AllocationOutcome(
            subtask_index=subtask_index,
            success=True,
            added_processors=tuple(added),
        )


@dataclass(frozen=True)
class HybridPolicy(CandidatePolicyAdapter):
    """Figure 5 first; Figure 7 to mop up if the forecast is unreachable.

    When the predictive loop exhausts the machine without satisfying the
    budget (FAILURE), the placement already holds every processor, so
    the fallback's only effect is bookkeeping: the outcome is reported
    as the heuristic's.  The interesting behaviour is earlier: on
    *partial* machines (some processors over the utilization threshold)
    the fallback can still pick up sub-threshold processors the
    predictive loop would have taken next anyway.
    """

    predictive: PredictivePolicy = field(default_factory=PredictivePolicy)
    fallback: NonPredictivePolicy = field(default_factory=NonPredictivePolicy)
    name: str = "hybrid"

    def replicate(
        self, context: AllocationContext, subtask_index: int
    ) -> AllocationOutcome:
        """Forecast-driven growth with a heuristic fallback."""
        outcome = self.predictive.replicate(context, subtask_index)
        if outcome.success:
            return outcome
        fallback_outcome = self.fallback.replicate(context, subtask_index)
        return AllocationOutcome(
            subtask_index=subtask_index,
            success=fallback_outcome.success,
            added_processors=outcome.added_processors
            + fallback_outcome.added_processors,
            forecast_latency=outcome.forecast_latency,
        )


register_policy("noadapt", NoAdaptationPolicy)
register_policy("staticmax", StaticMaxPolicy)
register_policy("hybrid", HybridPolicy)
