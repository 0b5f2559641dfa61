"""Replica shutdown — paper Figure 6 (``ShutDownAReplica``).

When a subtask exhibits very high slack the manager de-allocates one
replica per monitoring pass, always the **most recently added** one
(LIFO), and never the original:

.. code-block:: text

    ShutDownAReplica(st):
        if |PS(st)| == 1: return            # keep the original
        p := last added element of PS(st)
        PS(st) := PS(st) - {p}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.tasks.state import ReplicaAssignment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.allocation import AllocationContext


def shut_down_a_replica(
    assignment: ReplicaAssignment, subtask_index: int
) -> str | None:
    """Remove the last-added replica of ``st`` (Figure 6).

    Returns the name of the processor the replica was removed from, or
    ``None`` when only the original replica remained and nothing was
    done.
    """
    return assignment.remove_last_replica(subtask_index)


class ShutdownStrategy(Protocol):
    """How the manager de-allocates when the monitor says SHUTDOWN."""

    name: str

    def shutdown(
        self, context: "AllocationContext", subtask_index: int
    ) -> str | None:
        """Possibly remove one replica; return the freed processor."""
        ...


@dataclass(frozen=True)
class LifoShutdown:
    """The paper's Figure 6: unconditionally drop the last-added replica."""

    name: str = "lifo"

    def shutdown(
        self, context: "AllocationContext", subtask_index: int
    ) -> str | None:
        """Remove the newest replica of the candidate subtask."""
        return shut_down_a_replica(context.assignment, subtask_index)


@dataclass(frozen=True)
class ForecastAwareShutdown:
    """Extension: drop a replica only if the forecast says it is safe.

    Figure 6 shuts down purely on observed slack, which under a
    fluctuating workload can oscillate: high slack at the trough
    triggers a shutdown whose effect only shows at the next peak, where
    the subtask misses and is re-replicated.  This strategy simulates
    the removal first: it forecasts every remaining replica's latency
    for the ``k - 1``-replica configuration with
    :meth:`~repro.core.allocation.AllocationContext.forecast_latency` —
    exactly the Figure 5 check, reading guard included — and proceeds
    only if the forecast still clears the stage budget with the desired
    slack.

    Attributes
    ----------
    slack_fraction:
        The same ``sl`` as Figure 5 (paper: 0.2).
    """

    slack_fraction: float = 0.2
    name: str = "forecast-aware"

    def shutdown(
        self, context: "AllocationContext", subtask_index: int
    ) -> str | None:
        """Remove the newest replica iff the k-1 forecast stays timely."""
        assignment = context.assignment
        if assignment.replica_count(subtask_index) <= 1:
            return None
        telemetry = context.system.engine.telemetry
        profiler = telemetry.profiler if telemetry.enabled else None
        if profiler is not None:
            handle = profiler.begin("rm.forecast")
        survivors = assignment.processors_of(subtask_index)[:-1]
        worst = context.forecast_latency(subtask_index, survivors)
        if profiler is not None:
            profiler.end(handle, events=len(survivors))
        if worst > context.stage_threshold(subtask_index, self.slack_fraction):
            return None  # removing would (per the model) break timeliness
        return assignment.remove_last_replica(subtask_index)
