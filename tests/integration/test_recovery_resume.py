"""Checkpoint/restore determinism across the policy × chaos matrix.

The crash-safety contract in one suite: for every cell of
{predictive, nonpredictive} × {fault-free, crashes, corrupt_readings},

* arming periodic checkpoints changes *nothing* — the armed run's
  decision digest and metrics equal the unarmed reference's; and
* restoring the mid-run snapshot and running to the horizon reproduces
  the reference bit-identically (decision digest, metrics, final
  placement).

Each cell runs twice: once snapshotting on a period boundary and once
mid-period, with the period's jobs still in service.

Chaos cells run hardened: the unhardened predictive controller crashes
by design on corrupted monitor inputs, which is the hardening
subsystem's concern, not checkpointing's.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.runner import build_world, run_experiment
from repro.recovery import resume_experiment, take_snapshot

BASELINE = BaselineConfig(n_periods=12, seed=5)
UNITS = 15.0
SNAP_AT = 4.0
#: A snapshot time inside a period, while its pipeline's jobs are in
#: service on the processors (in every cell below).
SNAP_MID_PERIOD = 6.008
CELLS = [
    pytest.param(
        policy,
        scenario,
        snap_at,
        id=f"{policy}-{scenario or 'none'}{suffix}",
    )
    for snap_at, suffix in ((SNAP_AT, ""), (SNAP_MID_PERIOD, "-midperiod"))
    for policy in ("predictive", "nonpredictive")
    for scenario in (None, "crashes", "corrupt_readings")
]


def _config(policy, scenario, checkpoint=None) -> ExperimentConfig:
    return ExperimentConfig(
        policy=policy,
        pattern="triangular",
        max_workload_units=UNITS,
        baseline=BASELINE,
        chaos_scenario=scenario,
        hardened=scenario is not None,
        checkpoint=checkpoint,
    )


@pytest.mark.parametrize("policy,scenario,snap_at", CELLS)
class TestResumeMatrix:
    def test_checkpointing_and_resume_are_bit_identical(
        self, policy, scenario, snap_at, fitted_estimator
    ):
        reference = run_experiment(
            _config(policy, scenario), estimator=fitted_estimator
        )

        # Arming periodic checkpoints must be free: same decisions,
        # same metrics, same placement.
        armed = run_experiment(
            _config(policy, scenario, checkpoint=snap_at),
            estimator=fitted_estimator,
        )
        assert armed.decision_digest == reference.decision_digest
        assert armed.metrics.as_dict() == reference.metrics.as_dict()
        assert armed.final_placement == reference.final_placement

        # Snapshot mid-run, restore, run to the horizon: bit-identical
        # continuation.
        world = build_world(
            _config(policy, scenario), estimator=fitted_estimator
        )
        world.system.engine.run_until(snap_at)
        if snap_at == SNAP_MID_PERIOD:
            assert any(p.active_count for p in world.system.processors)
        snapshot = take_snapshot(world, label="matrix")
        assert snapshot.time == pytest.approx(snap_at)
        resumed = resume_experiment(snapshot)
        assert resumed.decision_digest == reference.decision_digest
        assert resumed.metrics.as_dict() == reference.metrics.as_dict()
        assert resumed.final_placement == reference.final_placement
        if scenario is not None:
            assert resumed.scorecard is not None
            assert (
                resumed.scorecard.as_dict() == reference.scorecard.as_dict()
            )


class TestResumeFromArmedCheckpointer:
    def test_resume_from_latest_periodic_capture(self, fitted_estimator):
        reference = run_experiment(
            _config("predictive", "crashes"),
            estimator=fitted_estimator,
        )
        world = build_world(
            _config("predictive", "crashes", checkpoint=SNAP_AT),
            estimator=fitted_estimator,
        )
        world.system.engine.run_until(9.0)
        snapshot = world.checkpointer.latest
        assert snapshot is not None
        assert snapshot.time == pytest.approx(8.0)
        resumed = resume_experiment(snapshot)
        assert resumed.decision_digest == reference.decision_digest
        assert resumed.metrics.as_dict() == reference.metrics.as_dict()
