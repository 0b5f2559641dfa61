"""The non-predictive baseline — paper Figure 7.

``ReplicateSubtask(st, t)`` replicates the candidate onto **every**
processor whose observed utilization is below the threshold ``UT``
(Table 1: 20 %), with no forecasting whatsoever:

.. code-block:: text

    for every p in PR - PS(st):
        if ut(p, t) < UT:
            PS(st) := PS(st) + {p}

This greedy resource grab is what drives the baseline's behaviour in
the paper's evaluation: low missed-deadline ratio and CPU utilization
(lots of parallelism) at the cost of far more replicas and network
utilization — which the combined metric penalizes.
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
class NonPredictivePolicy(CandidatePolicyAdapter):
    """Figure 7, parameterized by the utilization threshold ``UT``.

    Attributes
    ----------
    utilization_threshold:
        ``UT``: processors at or above this busy fraction are considered
        highly utilized and skipped (Table 1: 0.20).
    """

    utilization_threshold: float = 0.20
    name: str = "nonpredictive"

    def __post_init__(self) -> None:
        if not 0.0 < self.utilization_threshold <= 1.0:
            raise ConfigurationError(
                f"utilization_threshold must be in (0, 1], got "
                f"{self.utilization_threshold}"
            )

    def replicate(
        self, context: AllocationContext, subtask_index: int
    ) -> AllocationOutcome:
        """Add every below-threshold processor to ``PS(st)``.

        The threshold sweep is
        :meth:`repro.cluster.topology.System.processors_below`, which
        visits processors in creation order like Figure 7's
        ``for every p in PR`` loop.
        """
        hosting = set(context.assignment.processors_of(subtask_index))
        added: list[str] = []
        for processor in context.system.processors_below(
            self.utilization_threshold
        ):
            if (
                processor.name not in hosting
                and processor.name not in context.excluded_processors
            ):
                context.assignment.add_replica(subtask_index, processor.name)
                added.append(processor.name)
        # Figure 7 has no failure branch; the heuristic always "succeeds".
        return AllocationOutcome(
            subtask_index=subtask_index,
            success=True,
            added_processors=tuple(added),
        )


register_policy("nonpredictive", NonPredictivePolicy)
