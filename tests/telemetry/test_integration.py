"""End-to-end: a telemetry-enabled experiment run streams a usable trace."""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.telemetry import (
    JsonlTraceSink,
    TelemetryHub,
    read_jsonl,
    summarize_trace,
    to_chrome_trace,
)
from repro.telemetry.chrome import iter_kinds


@pytest.fixture(scope="module")
def telemetry_run(tmp_path_factory, fitted_estimator):
    """One predictive run instrumented end-to-end, shared by the tests."""
    out = tmp_path_factory.mktemp("telemetry")
    trace_path = out / "trace.jsonl"
    hub = TelemetryHub(sink=JsonlTraceSink(trace_path))
    config = ExperimentConfig(
        policy="predictive",
        pattern="increasing",
        max_workload_units=8.0,
        baseline=BaselineConfig(n_periods=15, noise_sigma=0.0, seed=3),
    )
    result = run_experiment(config, estimator=fitted_estimator, telemetry=hub)
    hub.close()
    return result, hub, trace_path


class TestTelemetryRun:
    def test_trace_file_written_and_parseable(self, telemetry_run):
        _, _, trace_path = telemetry_run
        records = read_jsonl(trace_path)
        assert len(records) > 50
        assert all("t" in r and "kind" in r for r in records)

    def test_trace_contains_expected_kinds(self, telemetry_run):
        _, _, trace_path = telemetry_run
        kinds = iter_kinds(read_jsonl(trace_path))
        assert kinds.get("run.meta", 0) == 1
        assert kinds.get("rm.span", 0) >= 10
        assert kinds.get("trace.job", 0) > 0
        assert kinds.get("trace.period", 0) > 0
        assert kinds.get("trace.message", 0) > 0
        # Executed calendar events are batch-accounted, never traced.
        assert "trace.event" not in kinds

    def test_metrics_registry_populated(self, telemetry_run):
        _, hub, _ = telemetry_run
        reg = hub.registry
        assert reg.counter("sim.events_executed").value > 0
        assert reg.counter("task.periods_completed").value == 15
        assert reg.counter("rm.steps").value >= 10
        assert reg.counter("net.messages_delivered").value > 0
        # Per-processor utilization gauges were recorded by the runner.
        snapshot = reg.snapshot(at=hub.now)
        util = [
            m for m in snapshot["metrics"] if m["name"] == "proc.utilization"
        ]
        assert len(util) >= 2
        assert all(0.0 <= m["value"] <= 1.0 for m in util)

    def test_exports_are_valid(self, telemetry_run):
        _, hub, trace_path = telemetry_run
        json.loads(hub.registry.to_json(at=hub.now))
        prom = hub.registry.to_prometheus(at=hub.now)
        assert "repro_sim_events_executed" in prom
        doc = to_chrome_trace(read_jsonl(trace_path))
        json.dumps(doc)
        assert len(doc["traceEvents"]) > 50

    def test_summary_renders(self, telemetry_run):
        _, _, trace_path = telemetry_run
        text = summarize_trace(read_jsonl(trace_path))
        assert "per-processor utilization" in text
        assert "forecast calibration" in text

    def test_forecast_calibration_attached_to_result(self, telemetry_run):
        result, _, _ = telemetry_run
        assert result.forecasts is not None
        assert result.forecasts.n >= 0
        assert result.forecasts.mape >= 0.0

    def test_telemetry_does_not_change_metrics(self, telemetry_run, fitted_estimator):
        """An instrumented run must be observationally identical."""
        result, _, _ = telemetry_run
        plain = run_experiment(
            ExperimentConfig(
                policy="predictive",
                pattern="increasing",
                max_workload_units=8.0,
                baseline=BaselineConfig(n_periods=15, noise_sigma=0.0, seed=3),
            ),
            estimator=fitted_estimator,
        )
        assert plain.metrics == result.metrics
