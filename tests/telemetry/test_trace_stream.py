"""The JSONL trace stream, pinned byte for byte.

Every instrumentation site reports through the
:class:`~repro.telemetry.hub.TelemetryHub`, and the hub writes each
site's ``trace`` record at a fixed point relative to its span, forecast
and SLO records.  These goldens pin the whole stream — record order,
keys, labels, payloads and float formatting — for two runs:

* ``repro --periods 8 run --policy predictive --max-units 5
  --telemetry-dir D`` (its ``metrics.json`` too);
* a hardened predictive run under ``rm_crash_under_load`` with failover,
  which adds the ``chaos``, ``failure`` and ``rm`` categories
  (``rm.crash``, ``<policy>.acted``, ``rm.takeover``).

The streams carry no per-event ``"cat": "event"`` records: the engine
accounts executed events per run loop, not one record each.  A change
to either digest means the trace format or the instrumentation order
changed; bump the constant only with a note saying why.
"""

from __future__ import annotations

import hashlib

from repro.cli import main
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.telemetry import JsonlTraceSink, TelemetryHub
from repro.telemetry.chrome import iter_kinds
from repro.telemetry.sinks import read_jsonl

CLI_TRACE_SHA256 = "4e54db8da06c1893c9a84d89853c81397a0db0a483b7bd5dae1f447b10f2d7ff"
# Re-pinned when the utilization index was deleted: the file is the
# previous one minus its seven ``cluster.index.*`` gauges, byte for byte.
CLI_METRICS_SHA256 = "448ad50f93a5ddb8d2262776ff90d34a627f14485327a6da63ad8d7884fa99b2"
FAILOVER_TRACE_SHA256 = (
    "f57cf3155a1908149d6a4ed96119e10e006686daa70e5abd09161164e90323eb"
)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_telemetry_dir_stream_is_pinned(tmp_path, capsys):
    out = tmp_path / "tel"
    code = main([
        "--periods", "8", "run", "--policy", "predictive",
        "--max-units", "5", "--telemetry-dir", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    trace = out / "trace.jsonl"
    assert len(trace.read_text().splitlines()) == 89
    assert _sha256(trace) == CLI_TRACE_SHA256
    assert _sha256(out / "metrics.json") == CLI_METRICS_SHA256


def test_failover_run_stream_is_pinned(tmp_path):
    config = ExperimentConfig(
        policy="predictive",
        pattern="triangular",
        max_workload_units=15.0,
        baseline=BaselineConfig(n_periods=40, seed=0),
        hardened=True,
        chaos_scenario="rm_crash_under_load",
        failover=True,
    )
    path = tmp_path / "trace.jsonl"
    hub = TelemetryHub(sink=JsonlTraceSink(path))
    run_experiment(config, telemetry=hub)
    hub.close()
    kinds = iter_kinds(read_jsonl(path))
    assert sum(kinds.values()) == 664
    for kind in ("trace.job", "trace.message", "trace.period", "trace.rm",
                 "trace.chaos", "trace.failure", "rm.span",
                 "rm.forecast_realized"):
        assert kinds.get(kind, 0) > 0, kind
    assert "trace.event" not in kinds
    assert _sha256(path) == FAILOVER_TRACE_SHA256
