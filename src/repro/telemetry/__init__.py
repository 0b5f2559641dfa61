"""Observability for the simulator: metrics, decision spans, trace export.

The package has four pieces:

* :mod:`repro.telemetry.metrics` — a registry of counters, gauges,
  time-weighted gauges, and fixed-bucket histograms, snapshot-able at
  any simulation time and exportable as JSON or Prometheus text.
* :mod:`repro.telemetry.spans` — structured spans for the resource
  manager's decision cycles, with predicted-vs-realized forecast pairing.
* :mod:`repro.telemetry.sinks` — streaming sinks (JSONL) that persist
  records incrementally instead of buffering them in memory.
* :mod:`repro.telemetry.chrome` — Chrome trace-event (Perfetto) export
  and the ``repro trace`` summary tables.

On top of those, the consumption layer:

* :mod:`repro.telemetry.slo` — declarative SLO rules evaluated in
  sim-time with multi-window burn-rate alerting.
* :mod:`repro.telemetry.profile` — a deterministic run profiler
  attributing wall-time and event counts to instrumented regions.
* :mod:`repro.telemetry.rollup` — order-independent campaign rollups
  that merge byte-identically whatever order runs finish in.
* :mod:`repro.telemetry.report` — the self-contained HTML health
  report behind ``repro report --health``.

:class:`TelemetryHub` (in :mod:`repro.telemetry.hub`) ties them together
behind the cheap ``enabled`` guard instrumented components check; the
:data:`NULL_TELEMETRY` singleton is the disabled default.

Layering: this package sits next to the foundation modules — it imports
only :mod:`repro.errors`, :mod:`repro.units`, and
:mod:`repro.formatting`, and is importable from every simulation layer.
"""

from repro.telemetry.chrome import (
    forecast_stats,
    processor_utilization,
    replica_counts,
    summarize_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.hub import NULL_TELEMETRY, NullTelemetry, TelemetryHub
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeWeightedGauge,
)
from repro.telemetry.profile import RegionStat, RunProfiler
from repro.telemetry.report import render_report, sparkline, write_report
from repro.telemetry.rollup import CampaignRollup, merge_rollups
from repro.telemetry.sinks import (
    JsonlTraceSink,
    MemorySink,
    TraceSink,
    read_jsonl,
)
from repro.telemetry.slo import (
    DEFAULT_SLO_RULES,
    SloAlert,
    SloEngine,
    SloReport,
    SloRule,
    SloVerdict,
    load_slo_rules,
)
from repro.telemetry.spans import DecisionSpan, ForecastEval, SpanRecorder

__all__ = [
    "CampaignRollup",
    "DEFAULT_BUCKETS",
    "DEFAULT_SLO_RULES",
    "Counter",
    "DecisionSpan",
    "ForecastEval",
    "Gauge",
    "Histogram",
    "JsonlTraceSink",
    "MemorySink",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "RegionStat",
    "RunProfiler",
    "SloAlert",
    "SloEngine",
    "SloReport",
    "SloRule",
    "SloVerdict",
    "SpanRecorder",
    "TelemetryHub",
    "TimeWeightedGauge",
    "TraceSink",
    "forecast_stats",
    "load_slo_rules",
    "merge_rollups",
    "processor_utilization",
    "read_jsonl",
    "render_report",
    "replica_counts",
    "sparkline",
    "summarize_trace",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_report",
]
