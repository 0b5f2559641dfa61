#!/usr/bin/env python3
"""Bring your own application: a custom pipeline and a custom policy.

The library is not hard-wired to the AAW benchmark.  This example

1. builds a *video-analytics* pipeline (Ingest -> Detect -> Track ->
   Publish) with its own demand models via :class:`TaskBuilder`,
2. profiles it and fits fresh regression models,
3. registers a custom allocation policy ("budgeted-predictive": the
   paper's Figure 5 loop with a hard replica cap) through the policy
   registry,
4. runs it against a bursty workload on a 4-node system.

Run:  python examples/custom_pipeline.py
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import (
    AdaptiveResourceManager,
    AllocationContext,
    AllocationOutcome,
    BurstyPattern,
    CandidatePolicyAdapter,
    LinearServiceModel,
    PeriodicTaskExecutor,
    PredictivePolicy,
    QuadraticServiceModel,
    ReplicaAssignment,
    RMConfig,
    TaskBuilder,
    build_system,
    fit_estimator,
    register_policy,
)

N_PERIODS = 30


def build_video_task():
    """A 4-stage video-analytics chain: frames instead of tracks."""
    return (
        TaskBuilder("video", period_s=0.5, deadline_s=0.45)
        .subtask("Ingest", LinearServiceModel(q1_ms=0.3, noise_sigma=0.05))
        .message(bytes_per_item=1200.0)  # compressed frame chunks
        .subtask(
            "Detect",
            QuadraticServiceModel(q2_ms=0.5, q1_ms=3.0, noise_sigma=0.05),
            replicable=True,
        )
        .message(bytes_per_item=200.0, context_bytes_per_item=40.0)
        .subtask(
            "Track",
            QuadraticServiceModel(q2_ms=0.2, q1_ms=2.0, noise_sigma=0.05),
            replicable=True,
        )
        .message(bytes_per_item=64.0)
        .subtask("Publish", LinearServiceModel(q1_ms=0.2, noise_sigma=0.05))
        .build()
    )


@dataclass(frozen=True)
class BudgetedPredictivePolicy(CandidatePolicyAdapter):
    """Figure 5's loop with a hard cap on replicas per subtask.

    Subclassing :class:`CandidatePolicyAdapter` means implementing
    ``replicate`` for one candidate; the inherited ``allocate`` runs it
    once per candidate of each monitoring cycle.
    """

    max_replicas: int = 3
    inner: PredictivePolicy = PredictivePolicy(slack_fraction=0.2)
    name: str = "budgeted-predictive"

    def replicate(
        self, context: AllocationContext, subtask_index: int
    ) -> AllocationOutcome:
        assignment = context.assignment
        if assignment.replica_count(subtask_index) >= self.max_replicas:
            return AllocationOutcome(subtask_index=subtask_index, success=False)
        outcome = self.inner.replicate(context, subtask_index)
        # Trim anything beyond the budget (keeps the cap hard).
        removed = 0
        while assignment.replica_count(subtask_index) > self.max_replicas:
            assignment.remove_last_replica(subtask_index)
            removed += 1
        kept = outcome.added_processors[: len(outcome.added_processors) - removed]
        return AllocationOutcome(
            subtask_index=outcome.subtask_index,
            success=outcome.success and removed == 0,
            added_processors=kept,
            forecast_latency=outcome.forecast_latency,
        )


register_policy("budgeted-predictive", BudgetedPredictivePolicy)


def main() -> None:
    task = build_video_task()
    print(f"Custom task {task.name!r}: {task.n_subtasks} subtasks, "
          f"period {task.period * 1e3:.0f} ms, deadline {task.deadline * 1e3:.0f} ms")

    print("Profiling the custom pipeline (fresh regression models)...")
    estimator = fit_estimator(
        task=task,
        u_grid=(0.0, 0.2, 0.4, 0.6),
        d_grid_tracks=(100.0, 300.0, 600.0, 1200.0, 2400.0),
        repetitions=2,
        seed=5,
    )

    system = build_system(n_processors=4, seed=5)
    names = [p.name for p in system.processors]
    assignment = ReplicaAssignment(
        task, {i + 1: names[i % len(names)] for i in range(task.n_subtasks)}
    )
    workload = BurstyPattern(
        min_tracks=200.0,
        max_tracks=2400.0,
        n_periods=N_PERIODS,
        burst_probability=0.35,
        seed=8,
    )
    executor = PeriodicTaskExecutor(system, task, assignment, workload=workload)
    manager = AdaptiveResourceManager(
        system,
        executor,
        estimator,
        policy=BudgetedPredictivePolicy(max_replicas=3),
        config=RMConfig(initial_d_tracks=200.0),
    )
    manager.start(N_PERIODS)
    executor.start(N_PERIODS)
    system.engine.run_until(N_PERIODS * task.period + 2.0)

    missed = sum(1 for r in executor.records if r.missed)
    peak = max(count for _, count in manager.replica_samples())
    print(f"\nBursty run on 4 nodes: {missed}/{N_PERIODS} deadlines missed, "
          f"peak total replicas {peak} (cap 3 per subtask), "
          f"{manager.actions_taken()} adaptations.")
    print("Final placement:")
    for index, processors in sorted(assignment.snapshot().items()):
        print(f"  {task.subtask(index).name:>8}: {list(processors)}")


if __name__ == "__main__":
    main()
