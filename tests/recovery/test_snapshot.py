"""Unit tests for :mod:`repro.recovery.snapshot`."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.runner import build_world, finalize_world, run_experiment
from repro.recovery import (
    SNAPSHOT_SCHEMA_VERSION,
    SimSnapshot,
    restore_snapshot,
    resume_experiment,
    take_snapshot,
)

BASELINE = BaselineConfig(n_periods=8, seed=3)
CONFIG = ExperimentConfig(
    policy="predictive",
    pattern="triangular",
    max_workload_units=12.0,
    baseline=BASELINE,
)


@pytest.fixture(scope="module")
def reference(request):
    estimator = request.getfixturevalue("fitted_estimator")
    return run_experiment(CONFIG, estimator=estimator)


class TestTakeRestore:
    def test_midway_snapshot_resumes_bit_identically(
        self, fitted_estimator, reference
    ):
        world = build_world(CONFIG, estimator=fitted_estimator)
        world.system.engine.run_until(3.0)
        snapshot = take_snapshot(world, label="midway")
        resumed = resume_experiment(snapshot)
        assert resumed.decision_digest == reference.decision_digest
        assert resumed.metrics.as_dict() == reference.metrics.as_dict()
        assert resumed.final_placement == reference.final_placement

    def test_snapshot_fields(self, fitted_estimator):
        world = build_world(CONFIG, estimator=fitted_estimator)
        world.system.engine.run_until(2.0)
        snapshot = take_snapshot(world, label="x")
        assert snapshot.schema_version == SNAPSHOT_SCHEMA_VERSION
        assert snapshot.time == pytest.approx(2.0)
        assert snapshot.meta["label"] == "x"
        assert set(snapshot.counters) == {"job_ids", "message_ids"}

    def test_restore_is_repeatable(self, fitted_estimator, reference):
        # One snapshot, two restores: the payload is immutable, so the
        # second resume must not see state mutated by the first.
        world = build_world(CONFIG, estimator=fitted_estimator)
        world.system.engine.run_until(4.0)
        snapshot = take_snapshot(world)
        first = resume_experiment(snapshot)
        second = resume_experiment(snapshot)
        assert first.decision_digest == second.decision_digest
        assert first.decision_digest == reference.decision_digest
        assert first.metrics.as_dict() == second.metrics.as_dict()

    def test_original_world_is_untouched_by_snapshot(
        self, fitted_estimator, reference
    ):
        # Taking a snapshot must not perturb the running world: carry
        # it to completion afterwards and compare against the plain run.
        world = build_world(CONFIG, estimator=fitted_estimator)
        world.system.engine.run_until(3.0)
        take_snapshot(world)
        world.system.engine.run_until(world.end_time)
        result = finalize_world(world)
        assert result.decision_digest == reference.decision_digest
        assert result.metrics.as_dict() == reference.metrics.as_dict()


class TestSaveLoad:
    def test_round_trip(self, fitted_estimator, tmp_path, reference):
        world = build_world(CONFIG, estimator=fitted_estimator)
        world.system.engine.run_until(3.0)
        snapshot = take_snapshot(world)
        path = snapshot.save(tmp_path / "ckpt.pkl")
        loaded = SimSnapshot.load(path)
        assert loaded.time == snapshot.time
        assert loaded.payload == snapshot.payload
        assert loaded.counters == snapshot.counters
        resumed = resume_experiment(loaded)
        assert resumed.decision_digest == reference.decision_digest

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "junk.pkl"
        path.write_bytes(pickle.dumps({"not": "a snapshot"}))
        with pytest.raises(ConfigurationError):
            SimSnapshot.load(path)

    def test_restore_rejects_unknown_schema(self, fitted_estimator):
        world = build_world(CONFIG, estimator=fitted_estimator)
        snapshot = take_snapshot(world)
        stale = SimSnapshot(
            schema_version=SNAPSHOT_SCHEMA_VERSION + 1,
            time=snapshot.time,
            payload=snapshot.payload,
            counters=snapshot.counters,
            meta=snapshot.meta,
        )
        with pytest.raises(ConfigurationError):
            restore_snapshot(stale)

    @pytest.mark.parametrize(
        "payload",
        [
            # Protocol-0 GLOBAL opcodes naming a deleted module / class.
            pytest.param(
                b"crepro.sim.vector\nVectorizedEngine\n.", id="missing-module"
            ),
            pytest.param(
                b"crepro.cluster.index\nUtilizationIndex\n.",
                id="missing-utilization-index",
            ),
            pytest.param(
                b"crepro.sim.engine\nNoSuchEngine\n.", id="missing-class"
            ),
            pytest.param(
                pickle.dumps({"world": list(range(64))})[:-9], id="truncated"
            ),
        ],
    )
    def test_restore_maps_payload_errors(self, payload):
        snapshot = SimSnapshot(
            schema_version=SNAPSHOT_SCHEMA_VERSION,
            time=4.0,
            payload=payload,
            meta={"label": "stale"},
        )
        with pytest.raises(ConfigurationError, match=r"'stale' taken at t=4s"):
            restore_snapshot(snapshot)

