"""Chrome trace-event export and trace summaries.

Converts a JSONL trace (see :mod:`repro.telemetry.sinks`) into the
Chrome trace-event JSON format, which ``chrome://tracing`` and Perfetto
load directly.  The layout mirrors the simulated machine:

* one *process* row per group — processors, the network medium, the
  resource manager, and the task's periods;
* one *thread* track per processor (jobs as duration slices, failures
  as instants), one for the shared medium (message transmissions), one
  for RM decision spans and forecast realizations.

:func:`summarize_trace` derives the quick-look numbers the ``repro
trace`` CLI prints: per-processor utilization (union of job busy
intervals), per-subtask replica counts (from decision spans), and
forecast calibration statistics (from realization records).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.formatting import format_table

_US = 1e6  # seconds -> trace-event microseconds

PID_PROCESSORS = 1
PID_NETWORK = 2
PID_RM = 3
PID_TASK = 4


def _meta(pid: int, name: str, tid: int | None = None) -> dict[str, Any]:
    event: dict[str, Any] = {
        "ph": "M",
        "pid": pid,
        "name": "process_name" if tid is None else "thread_name",
        "args": {"name": name},
    }
    if tid is not None:
        event["tid"] = tid
    return event


def _slice(
    name: str,
    cat: str,
    start_s: float,
    dur_s: float,
    pid: int,
    tid: int,
    args: dict[str, Any],
) -> dict[str, Any]:
    return {
        "ph": "X",
        "name": name,
        "cat": cat,
        "ts": start_s * _US,
        "dur": max(dur_s, 0.0) * _US,
        "pid": pid,
        "tid": tid,
        "args": args,
    }


def _instant(
    name: str, cat: str, t_s: float, pid: int, tid: int, args: dict[str, Any]
) -> dict[str, Any]:
    return {
        "ph": "i",
        "name": name,
        "cat": cat,
        "ts": t_s * _US,
        "pid": pid,
        "tid": tid,
        "s": "t",
        "args": args,
    }


def _processor_tids(records: Sequence[dict[str, Any]]) -> dict[str, int]:
    """Stable thread ids for every processor seen in the trace."""
    names = set()
    for record in records:
        if record.get("kind") != "trace":
            continue
        if record.get("cat") in ("job", "failure"):
            processor = record.get("data", {}).get("processor")
            if processor is None and record.get("cat") == "failure":
                # failure labels are "<name>.fail" / "<name>.recover"
                processor = str(record.get("label", "")).rsplit(".", 1)[0]
            if processor:
                names.add(str(processor))
    return {name: i + 1 for i, name in enumerate(sorted(names))}


def to_chrome_trace(records: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Build the Chrome trace-event document from JSONL records."""
    tids = _processor_tids(records)
    events: list[dict[str, Any]] = [
        _meta(PID_PROCESSORS, "processors"),
        _meta(PID_NETWORK, "network"),
        _meta(PID_RM, "resource manager"),
        _meta(PID_TASK, "task periods"),
        _meta(PID_NETWORK, "shared medium", tid=1),
        _meta(PID_RM, "decisions", tid=1),
        _meta(PID_TASK, "periods", tid=1),
    ]
    for name, tid in sorted(tids.items()):
        events.append(_meta(PID_PROCESSORS, name, tid=tid))
    other: dict[str, Any] = {}
    for record in records:
        events.extend(_convert(record, tids, other))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def _convert(
    record: dict[str, Any], tids: dict[str, int], other: dict[str, Any]
) -> list[dict[str, Any]]:
    kind = record.get("kind")
    t = float(record.get("t", 0.0))
    if kind == "run.meta":
        other.update({k: v for k, v in record.items() if k not in ("t", "kind")})
        return []
    if kind == "rm.span":
        end = record.get("end_t")
        dur = max(0.0, float(end) - t) if end is not None else 0.0
        args = {
            "verdicts": record.get("verdicts", []),
            "forecasts": record.get("forecasts", []),
            "actions": record.get("actions", []),
            "replicas": record.get("replicas", {}),
        }
        name = f"rm.step#{record.get('span_id')}"
        if record.get("actions"):
            name += " (acted)"
        if dur > 0.0:
            return [_slice(name, "rm", t, dur, PID_RM, 1, args)]
        return [_instant(name, "rm", t, PID_RM, 1, args)]
    if kind == "rm.forecast_realized":
        args = {k: v for k, v in record.items() if k not in ("t", "kind")}
        return [_instant("forecast.realized", "rm", t, PID_RM, 1, args)]
    if kind != "trace":
        return []  # unknown kinds pass through silently (forward compat)
    cat = record.get("cat", "")
    label = str(record.get("label", ""))
    data = record.get("data", {}) or {}
    if cat == "job":
        latency = float(data.get("latency", 0.0))
        tid = tids.get(str(data.get("processor", "")), 0)
        return [
            _slice(label, "job", t - latency, latency, PID_PROCESSORS, tid, data)
        ]
    if cat == "message":
        if label.endswith(".lost"):
            return [_instant(label, "message", t, PID_NETWORK, 1, data)]
        delay = float(data.get("total_delay", 0.0))
        return [_slice(label, "message", t - delay, delay, PID_NETWORK, 1, data)]
    if cat == "period":
        latency = data.get("latency")
        if label.endswith(".complete") and latency is not None:
            return [
                _slice(
                    label, "period", t - float(latency), float(latency),
                    PID_TASK, 1, data,
                )
            ]
        return [_instant(label, "period", t, PID_TASK, 1, data)]
    if cat == "failure":
        processor = label.rsplit(".", 1)[0]
        tid = tids.get(processor, 0)
        return [_instant(label, "failure", t, PID_PROCESSORS, tid, data)]
    if cat == "rm":
        return [_instant(label, "rm", t, PID_RM, 1, data)]
    return []  # other categories (e.g. older traces' "event" lines) stay out


def write_chrome_trace(
    records: Sequence[dict[str, Any]], path: str | Path
) -> Path:
    """Convert ``records`` and write the Chrome trace JSON to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(records)))
    return path


# -- summaries -------------------------------------------------------------


def _merged_busy(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    current_start: float | None = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def processor_utilization(
    records: Sequence[dict[str, Any]], horizon: float | None = None
) -> dict[str, float]:
    """Busy fraction per processor from job slices in the trace.

    A processor is busy exactly while it has >= 1 active job, so the
    union of ``[completion - latency, completion]`` job intervals over
    the horizon reproduces the meter's busy fraction.
    """
    intervals: dict[str, list[tuple[float, float]]] = {}
    t_max = 0.0
    for record in records:
        t = float(record.get("t", 0.0))
        t_max = max(t_max, t)
        if record.get("kind") != "trace" or record.get("cat") != "job":
            continue
        data = record.get("data", {}) or {}
        processor = str(data.get("processor", ""))
        latency = float(data.get("latency", 0.0))
        intervals.setdefault(processor, []).append((t - latency, t))
    span = horizon if horizon and horizon > 0.0 else t_max
    if span <= 0.0:
        return {name: 0.0 for name in intervals}
    return {
        name: min(1.0, _merged_busy(ivs) / span)
        for name, ivs in sorted(intervals.items())
    }


def replica_counts(
    records: Sequence[dict[str, Any]],
) -> dict[int, dict[str, float]]:
    """Per-subtask replica statistics from the decision spans.

    Returns ``{subtask: {"mean": ..., "max": ..., "final": ...}}`` over
    every ``rm.span`` record (mean is over spans, i.e. per RM step).
    """
    series: dict[int, list[int]] = {}
    for record in records:
        if record.get("kind") != "rm.span":
            continue
        for subtask, count in record.get("replicas", {}).items():
            series.setdefault(int(subtask), []).append(int(count))
    return {
        subtask: {
            "mean": sum(counts) / len(counts),
            "max": float(max(counts)),
            "final": float(counts[-1]),
        }
        for subtask, counts in sorted(series.items())
    }


def forecast_stats(records: Sequence[dict[str, Any]]) -> dict[str, float]:
    """Calibration statistics from ``rm.forecast_realized`` records."""
    errors: list[float] = []
    apes: list[float] = []
    evaluations = 0
    for record in records:
        if record.get("kind") == "rm.span":
            evaluations += len(record.get("forecasts", []))
        if record.get("kind") != "rm.forecast_realized":
            continue
        error = float(record["error_s"])
        observed = float(record["observed_s"])
        errors.append(error)
        apes.append(abs(error) / max(observed, 1e-9))
    n = len(errors)
    return {
        "n_realized": float(n),
        "n_evaluations": float(evaluations),
        "mape": sum(apes) / n if n else 0.0,
        "mean_error_s": sum(errors) / n if n else 0.0,
        "pessimism_rate": (
            sum(1 for e in errors if e >= 0.0) / n if n else 0.0
        ),
    }


def run_meta(records: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """The merged ``run.meta`` context of a trace (empty if absent)."""
    out: dict[str, Any] = {}
    for record in records:
        if record.get("kind") == "run.meta":
            out.update(
                {k: v for k, v in record.items() if k not in ("t", "kind")}
            )
    return out


def summarize_trace(records: Sequence[dict[str, Any]]) -> str:
    """Render the ``repro trace`` summary tables from JSONL records."""
    meta = run_meta(records)
    horizon = meta.get("horizon")
    sections: list[str] = []
    if meta:
        sections.append(
            format_table(
                ["key", "value"],
                sorted(meta.items()),
                title="run",
            )
        )
    utilization = processor_utilization(
        records, horizon=float(horizon) if horizon is not None else None
    )
    if utilization:
        sections.append(
            format_table(
                ["processor", "utilization"],
                [[name, value] for name, value in utilization.items()],
                title="per-processor utilization (busy fraction)",
            )
        )
    replicas = replica_counts(records)
    if replicas:
        sections.append(
            format_table(
                ["subtask", "mean replicas", "max", "final"],
                [
                    [subtask, stats["mean"], int(stats["max"]), int(stats["final"])]
                    for subtask, stats in replicas.items()
                ],
                title="per-subtask replica counts (over RM steps)",
            )
        )
    stats = forecast_stats(records)
    sections.append(
        format_table(
            ["statistic", "value"],
            [
                ["forecast evaluations", int(stats["n_evaluations"])],
                ["realized forecasts", int(stats["n_realized"])],
                ["MAPE", stats["mape"]],
                ["mean signed error (s)", stats["mean_error_s"]],
                ["pessimism rate", stats["pessimism_rate"]],
            ],
            title="forecast calibration",
        )
    )
    return "\n\n".join(sections)


def iter_kinds(records: Iterable[dict[str, Any]]) -> dict[str, int]:
    """Record counts by kind/category (diagnostic helper)."""
    counts: dict[str, int] = {}
    for record in records:
        key = str(record.get("kind", "?"))
        if key == "trace":
            key = f"trace.{record.get('cat', '?')}"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))
