"""The benchmark's workloads: which experiments one round runs.

A *round* is one serial pass over a workload's experiment list.  Every
list is a pure function of the workload seed, so the same seed gives the
same runs.  The seed only chooses each run's ``seed_offset`` (the
simulation's rng streams); the estimator is always fitted with the
library's default profiling seed, because the fit decides which regime a
P=512 run falls into (see ``RECORD.md``, "Regime facts").
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed whose decision digests are pinned in ``pinned.json``.
DEFAULT_SEED = 0

#: ``BaselineConfig.seed`` for every workload: the estimator's profiling
#: seed (Table 1 baseline default).
FIT_SEED = 0

#: The Figure 9-13 x-axis (workload units).
PAPER_UNITS = (1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0)


@dataclass(frozen=True)
class Run:
    """One experiment of a round: its config and rng offset."""

    key: str
    config: object
    seed_offset: int


@dataclass(frozen=True)
class Workload:
    """A named experiment list (why each exists: ``BENCHMARK.json``)."""

    name: str
    #: ``(n_nodes, n_periods)`` of the shared baseline.
    shape: tuple[int, int]
    #: Experiments per round.
    runs_per_round: int

    def runs(self, seed: int) -> list[Run]:
        """The round's experiments for ``seed`` (deterministic)."""
        from repro.experiments.config import BaselineConfig, ExperimentConfig

        n_nodes, n_periods = self.shape
        baseline = BaselineConfig(n_nodes=n_nodes, n_periods=n_periods, seed=FIT_SEED)
        offsets = [seed * self.runs_per_round + i for i in range(self.runs_per_round)]
        if self.name == "paper6":
            specs = [
                (f"{policy}/u{units:g}", dict(policy=policy, max_workload_units=units))
                for policy in ("predictive", "nonpredictive")
                for units in PAPER_UNITS
            ]
        elif self.name == "scale512_pred":
            specs = [
                (f"predictive/u200/o{o}", dict(policy="predictive", max_workload_units=200.0))
                for o in offsets
            ]
        elif self.name == "scale512_nonpred":
            specs = [
                (f"nonpredictive/u12/o{o}", dict(policy="nonpredictive", max_workload_units=12.0))
                for o in offsets
            ]
        elif self.name == "ops6":
            from repro.telemetry.slo import DEFAULT_SLO_RULES

            specs = [
                (
                    f"ops/o{o}",
                    dict(
                        policy="predictive",
                        max_workload_units=15.0,
                        hardened=True,
                        chaos_scenario="rm_crash_under_load",
                        failover=True,
                        checkpoint=10.0,
                        slo=DEFAULT_SLO_RULES,
                    ),
                )
                for o in offsets
            ]
        else:  # pragma: no cover - WORKLOADS is the only source of names
            raise KeyError(self.name)
        return [
            Run(key, ExperimentConfig(pattern="triangular", baseline=baseline, **fields), offset)
            for (key, fields), offset in zip(specs, offsets)
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper6", shape=(6, 200), runs_per_round=16),
        Workload("scale512_pred", shape=(512, 80), runs_per_round=3),
        Workload("scale512_nonpred", shape=(512, 80), runs_per_round=3),
        Workload("ops6", shape=(6, 250), runs_per_round=4),
    )
}
