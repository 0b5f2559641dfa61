"""Trace continuity across checkpoint/restore (:mod:`repro.recovery`).

A run whose :class:`~repro.telemetry.hub.TelemetryHub` streams to a
:class:`JsonlTraceSink` and that is snapshotted and resumed must leave
ONE coherent trace file: the records written before the snapshot
survive (append-mode reopen, no truncation) and the continuation's
records follow them, all loadable by :func:`read_jsonl` and equal to
the uninterrupted run's stream.
"""

from __future__ import annotations

import pickle

from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.runner import build_world, finalize_world, run_experiment
from repro.recovery import restore_snapshot, take_snapshot
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.sinks import JsonlTraceSink, read_jsonl
from repro.telemetry.slo import DEFAULT_SLO_RULES

BASELINE = BaselineConfig(n_periods=8, seed=3)
CONFIG = ExperimentConfig(
    policy="predictive",
    pattern="triangular",
    max_workload_units=12.0,
    baseline=BASELINE,
)


class TestAppendMode:
    def test_append_reopen_concatenates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.write({"t": 1.0, "kind": "trace", "label": "first"})
        with JsonlTraceSink(path, append=True) as sink:
            sink.write({"t": 2.0, "kind": "trace", "label": "second"})
        records = read_jsonl(path)
        assert [r["label"] for r in records] == ["first", "second"]

    def test_default_mode_still_truncates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.write({"t": 1.0, "kind": "trace", "label": "first"})
        with JsonlTraceSink(path) as sink:
            sink.write({"t": 2.0, "kind": "trace", "label": "second"})
        assert [r["label"] for r in read_jsonl(path)] == ["second"]

    def test_unpickled_sink_reopens_in_append_mode(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        sink.write({"t": 1.0, "kind": "trace", "label": "before"})
        clone = pickle.loads(pickle.dumps(sink))
        sink.close()
        clone.write({"t": 2.0, "kind": "trace", "label": "after"})
        clone.close()
        assert [r["label"] for r in read_jsonl(path)] == ["before", "after"]


class TestResumedRunTrace:
    def test_resumed_trace_concatenates_and_round_trips(self, tmp_path, fitted_estimator):
        # Reference: one uninterrupted traced run.
        ref_path = tmp_path / "ref.jsonl"
        reference_hub = _hub(ref_path)
        run_experiment(CONFIG, estimator=fitted_estimator, telemetry=reference_hub)
        reference_hub.close()
        reference = read_jsonl(ref_path)
        assert reference, "traced reference run produced no records"

        # Crash-and-resume: snapshot mid-run (the hub and its sink pickle
        # with the world), keep running nothing in the original, restore,
        # finish.
        path = tmp_path / "trace.jsonl"
        hub = _hub(path)
        world = build_world(CONFIG, estimator=fitted_estimator, telemetry=hub)
        world.system.engine.run_until(3.0)
        snapshot = take_snapshot(world)
        hub.sink.close()  # the "crash": original process gone, file flushed

        resumed_world = restore_snapshot(snapshot)
        resumed_world.system.engine.run_until(resumed_world.end_time)
        finalize_world(resumed_world)
        resumed_hub = resumed_world.system.engine.telemetry
        assert resumed_hub is not hub
        resumed_hub.close()

        merged = read_jsonl(path)
        times = [r["t"] for r in merged]
        assert times == sorted(times)
        # The pre-snapshot prefix survived and the continuation extends
        # past the snapshot point.
        assert any(r["t"] <= 3.0 for r in merged)
        assert any(r["t"] > 3.0 for r in merged)
        # One stream: the merged trace is the uninterrupted run's, record
        # for record, and the resumed hub's metrics match it too.
        assert merged == reference
        assert resumed_hub.registry.to_json(resumed_hub.now) == (
            reference_hub.registry.to_json(reference_hub.now)
        )


def _hub(path):
    """A hub streaming to ``path`` with the default SLO rules armed."""
    hub = TelemetryHub(sink=JsonlTraceSink(path, flush_every=1))
    hub.arm_slo(DEFAULT_SLO_RULES)
    return hub
