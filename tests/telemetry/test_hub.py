"""Unit tests for the telemetry hub facade.

The hub takes duck-typed simulation objects, so these tests drive it
with lightweight stand-ins shaped like ``PeriodRecord``,
``MonitorReport``, and ``RMEvent`` instead of building a full system.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    MemorySink,
    NullTelemetry,
    TelemetryHub,
)


def _stage(subtask_index, replica_count, stage_latency):
    return SimpleNamespace(
        subtask_index=subtask_index,
        replica_count=replica_count,
        stage_latency=stage_latency,
    )


def _period(period_index, stages, missed=False, latency=0.5):
    return SimpleNamespace(
        period_index=period_index, stages=stages, missed=missed, latency=latency
    )


def _job(demand, latency, label="", kind="exec"):
    return SimpleNamespace(demand=demand, latency=latency, label=label, kind=kind)


def _message(
    wire_bytes=64.0, buffer_delay=0.0, total_delay=0.01, label="", loss_count=1
):
    return SimpleNamespace(
        wire_bytes=wire_bytes,
        buffer_delay=buffer_delay,
        total_delay=total_delay,
        label=label,
        loss_count=loss_count,
    )


def _verdict(subtask_index, action):
    return SimpleNamespace(
        subtask_index=subtask_index,
        action=SimpleNamespace(value=action),
        mean_stage_latency=0.1,
        budget=0.2,
        slack=0.05,
        overdue=False,
    )


def _event(
    outcomes=(), shutdowns=(), recoveries=(), placement=None, total_replicas=0
):
    return SimpleNamespace(
        outcomes=list(outcomes),
        shutdowns=list(shutdowns),
        recoveries=list(recoveries),
        placement=placement or {},
        total_replicas=total_replicas,
    )


class TestHubBasics:
    def test_enabled_flags(self):
        assert TelemetryHub().enabled
        assert not NullTelemetry().enabled
        assert not NULL_TELEMETRY.enabled

    def test_now_tracks_largest_seen_time(self):
        hub = TelemetryHub()
        hub.on_engine_run(5.0, 10)
        hub.on_message_lost(3.0, _message())  # earlier time must not move `now` back
        assert hub.now == 5.0

    def test_emit_without_sink_is_safe(self):
        TelemetryHub().emit({"t": 0.0, "kind": "trace"})

    def test_set_run_meta_streams_record(self):
        sink = MemorySink()
        hub = TelemetryHub(sink=sink)
        hub.set_run_meta(policy="predictive", seed=7)
        assert sink.records == [
            {"t": 0.0, "kind": "run.meta", "policy": "predictive", "seed": 7}
        ]

    def test_close_flushes_dangling_span(self):
        sink = MemorySink()
        hub = TelemetryHub(sink=sink)
        hub.begin_decision(1.0)
        hub.close()
        assert [r["kind"] for r in sink.records] == ["rm.span"]


class TestInstrumentationCallbacks:
    def test_on_engine_run(self):
        hub = TelemetryHub()
        hub.on_engine_run(2.0, 100)
        hub.on_engine_run(4.0, 50)
        assert hub.registry.counter("sim.events_executed").value == 150
        assert hub.registry.gauge("sim.time").value == 4.0

    def test_on_job_complete_labels_by_processor(self):
        hub = TelemetryHub()
        hub.on_job_complete(1.0, "p0", _job(0.1, 0.2))
        hub.on_job_complete(2.0, "p0", _job(0.1, 0.3))
        hub.on_job_complete(2.0, "p1", _job(0.1, 0.4))
        assert (
            hub.registry.counter("proc.jobs_completed", {"processor": "p0"}).value
            == 2
        )
        hist = hub.registry.histogram(
            "proc.job_latency_seconds", {"processor": "p1"}
        )
        assert hist.count == 1

    def test_network_callbacks(self):
        hub = TelemetryHub()
        hub.on_message_delivered(1.0, _message(512.0, 0.01, 0.02))
        hub.on_message_lost(1.5, _message())
        assert hub.registry.counter("net.messages_delivered").value == 1
        assert hub.registry.counter("net.bytes_delivered").value == 512.0
        assert hub.registry.counter("net.messages_lost").value == 1
        assert hub.registry.histogram("net.message_delay_seconds").count == 1

    def test_on_period_complete_counts_and_misses(self):
        hub = TelemetryHub()
        hub.on_period_complete(1.0, "aaw", _period(0, [], missed=False))
        hub.on_period_complete(2.0, "aaw", _period(1, [], missed=True))
        assert hub.registry.counter("task.periods_completed").value == 2
        assert hub.registry.counter("task.periods_missed").value == 1
        assert hub.registry.histogram("task.period_latency_seconds").count == 2

    def test_on_period_abort(self):
        hub = TelemetryHub()
        hub.on_period_abort(1.0, "aaw", _period(0, []))
        assert hub.registry.counter("task.periods_aborted").value == 1
        assert hub.registry.counter("task.periods_missed").value == 1

    def test_on_period_abort_advances_now(self):
        hub = TelemetryHub()
        hub.on_period_abort(7.5, "aaw", _period(0, []))
        assert hub.now == 7.5

    def test_on_message_dropped(self):
        hub = TelemetryHub()
        hub.on_message_dropped(2.0, _message())
        hub.on_message_dropped(3.0, _message())
        assert hub.registry.counter("net.messages_dropped").value == 2
        assert hub.now == 3.0

    def test_on_cluster_utilization(self):
        hub = TelemetryHub()
        hub.on_cluster_utilization(1.0, 0.4, "p2")
        hub.on_cluster_utilization(2.0, 0.3, "p2")
        hub.on_cluster_utilization(3.0, 0.5, "p0")
        assert hub.registry.gauge("cluster.min_utilization").value == 0.5
        assert (
            hub.registry.counter(
                "cluster.min_utilization_samples", {"processor": "p2"}
            ).value
            == 2
        )
        assert (
            hub.registry.counter(
                "cluster.min_utilization_samples", {"processor": "p0"}
            ).value
            == 1
        )


class TestDecisionCycle:
    def test_full_cycle_builds_span(self):
        sink = MemorySink()
        hub = TelemetryHub(sink=sink)
        hub.begin_decision(1.0)
        hub.on_monitor_report(
            1.0,
            SimpleNamespace(verdicts=[_verdict(0, "replicate"), _verdict(1, "ok")]),
        )
        hub.on_forecast(1.0, 0, 1, forecast_s=0.5, threshold_s=0.4, accepted=False)
        hub.on_forecast(1.0, 0, 2, forecast_s=0.3, threshold_s=0.4, accepted=True)
        event = _event(
            outcomes=[
                SimpleNamespace(
                    changed=True,
                    subtask_index=0,
                    added_processors=["p2"],
                    success=True,
                    forecast_latency=0.3,
                )
            ],
            placement={0: ["p0", "p2"], 1: ["p1"]},
            total_replicas=3,
        )
        span = hub.end_decision(1.1, event)
        assert span is not None
        assert span.acted
        assert len(span.verdicts) == 2
        assert len(span.forecasts) == 2
        assert span.replicas == {0: 2, 1: 1}
        assert hub.registry.counter("rm.steps").value == 1
        assert hub.registry.counter("rm.actions").value == 1
        assert hub.registry.counter("rm.verdicts", {"action": "replicate"}).value == 1
        assert hub.registry.counter("rm.forecast_evaluations").value == 2
        assert hub.registry.time_gauge("rm.replicas_total").value == 3.0
        [record] = sink.records
        assert record["kind"] == "rm.span"
        assert record["actions"][0]["kind"] == "replicate"

    def test_shutdown_and_recovery_actions(self):
        hub = TelemetryHub()
        hub.begin_decision(1.0)
        event = _event(
            shutdowns=[(1, "p3")],
            recoveries=[(0, "p1", None)],
            placement={0: ["p0"], 1: ["p2"]},
            total_replicas=2,
        )
        span = hub.end_decision(1.1, event)
        kinds = [a["kind"] for a in span.actions]
        assert kinds == ["shutdown", "recovery"]
        # A failed replica with no spare target is recorded as evicted.
        assert span.actions[1]["processors"] == ["p1", "evicted"]

    def test_quiet_cycle_does_not_count_as_action(self):
        hub = TelemetryHub()
        hub.begin_decision(1.0)
        span = hub.end_decision(1.1, _event(placement={0: ["p0"]}, total_replicas=1))
        assert not span.acted
        assert hub.registry.counter("rm.actions").value == 0

    def test_end_decision_without_begin_returns_none(self):
        hub = TelemetryHub()
        assert hub.end_decision(1.0, _event()) is None


class TestForecastRealization:
    def test_accepted_forecast_realized_by_period_completion(self):
        sink = MemorySink()
        hub = TelemetryHub(sink=sink)
        hub.begin_decision(1.0)
        hub.on_forecast(1.0, 0, 2, forecast_s=0.5, threshold_s=0.6, accepted=True)
        hub.end_decision(1.1, _event(placement={0: ["p0", "p1"]}, total_replicas=2))
        hub.on_period_complete(2.0, "aaw", _period(3, [_stage(0, 2, 0.4)]))
        realized = [
            r for r in sink.records if r["kind"] == "rm.forecast_realized"
        ]
        assert len(realized) == 1
        assert realized[0]["error_s"] == pytest.approx(0.1)
        assert realized[0]["period"] == 3
        assert hub.registry.histogram("rm.forecast_error_seconds").count == 1

    def test_rejected_forecast_is_not_pending(self):
        sink = MemorySink()
        hub = TelemetryHub(sink=sink)
        hub.begin_decision(1.0)
        hub.on_forecast(1.0, 0, 2, forecast_s=0.9, threshold_s=0.6, accepted=False)
        hub.end_decision(1.1, _event(placement={}, total_replicas=0))
        hub.on_period_complete(2.0, "aaw", _period(3, [_stage(0, 2, 0.4)]))
        assert not any(
            r["kind"] == "rm.forecast_realized" for r in sink.records
        )

    def test_stage_without_latency_is_skipped(self):
        hub = TelemetryHub()
        hub.begin_decision(1.0)
        hub.on_forecast(1.0, 0, 2, forecast_s=0.5, threshold_s=0.6, accepted=True)
        hub.end_decision(1.1, _event(placement={}, total_replicas=0))
        hub.on_period_complete(2.0, "aaw", _period(3, [_stage(0, 2, None)]))
        assert len(hub.spans.pending) == 1  # still awaiting a real latency


class TestArmedConsumers:
    def test_arm_slo_feeds_periods_messages_and_aborts(self):
        hub = TelemetryHub()
        engine = hub.arm_slo()
        assert hub.slo is engine
        hub.on_period_complete(1.0, "aaw", _period(0, [], missed=False))
        hub.on_period_complete(2.0, "aaw", _period(1, [], missed=True))
        hub.on_period_abort(3.0, "aaw", _period(2, []))
        hub.on_message_delivered(3.0, _message(64.0, 0.0, 0.01))
        hub.on_message_dropped(3.5, _message())
        report = engine.report()
        by_name = {v.rule.name: v for v in report.verdicts}
        # 3 periods, 2 bad (the miss and the abort).
        assert by_name["deadline-miss-rate"].n_events == 3
        assert by_name["deadline-miss-rate"].observed == pytest.approx(2 / 3)
        # 2 messages, 1 dropped.
        assert by_name["message-loss"].observed == pytest.approx(0.5)

    def test_arm_slo_realizes_forecast_calibration(self):
        hub = TelemetryHub()
        engine = hub.arm_slo()
        hub.begin_decision(1.0)
        hub.on_forecast(1.0, 0, 2, forecast_s=0.8, threshold_s=0.9,
                        accepted=True)
        hub.end_decision(1.1, _event(placement={0: ["p0", "p1"]},
                                     total_replicas=2))
        # Realized 0.4 vs forecast 0.8: APE 1.0 > the 0.5 tolerance.
        hub.on_period_complete(2.0, "aaw", _period(3, [_stage(0, 2, 0.4)]))
        by_name = {v.rule.name: v for v in engine.report().verdicts}
        assert by_name["forecast-calibration"].n_events == 1
        assert by_name["forecast-calibration"].observed == 1.0

    def test_end_decision_runs_an_evaluation(self):
        hub = TelemetryHub()
        hub.arm_slo()
        hub.begin_decision(1.0)
        hub.on_period_complete(1.0, "aaw", _period(0, [], missed=True))
        hub.end_decision(1.1, _event(placement={}, total_replicas=0))
        assert (
            hub.registry.gauge(
                "slo.observed", {"slo": "deadline-miss-rate"}
            ).value
            == 1.0
        )

    def test_alert_records_reach_the_sink(self):
        sink = MemorySink()
        hub = TelemetryHub(sink=sink)
        hub.arm_slo()
        for i in range(4):
            hub.begin_decision(float(i))
            hub.on_period_complete(float(i), "aaw", _period(i, [], missed=True))
            hub.end_decision(float(i) + 0.1, _event(placement={},
                                                    total_replicas=0))
        alerts = [r for r in sink.records if r["kind"] == "slo.alert"]
        assert alerts and alerts[0]["state"] == "firing"

    def test_arm_profiler_counts_messages(self):
        hub = TelemetryHub()
        profiler = hub.arm_profiler()
        assert hub.profiler is profiler
        hub.on_message_delivered(1.0, _message(64.0, 0.0, 0.01))
        hub.on_message_dropped(2.0, _message())
        [stat] = profiler.stats()
        assert stat.name == "net.message"
        assert stat.events == 2

    def test_unarmed_hub_has_no_consumers(self):
        hub = TelemetryHub()
        assert hub.slo is None
        assert hub.profiler is None


class TestNullTelemetry:
    def test_all_callbacks_are_noops(self):
        null = NullTelemetry()
        null.emit({"t": 0.0, "kind": "trace"})
        null.on_engine_run(1.0, 5)
        null.on_job_complete(1.0, "p0", _job(0.1, 0.2))
        null.on_message_delivered(1.0, _message(10.0, 0.0, 0.0))
        null.on_message_lost(1.0, _message())
        null.on_message_dropped(1.0, _message())
        null.on_cluster_utilization(1.0, 0.5, "p0")
        null.on_period_complete(1.0, "aaw", _period(0, []))
        null.on_period_abort(1.0, "aaw", _period(0, []))
        null.on_fault_injected(
            1.0, SimpleNamespace(kind="crash", target="p1", duration_s=2.0, value=0.0)
        )
        null.trace(1.0, "rm", "rm.crash", {"cancelled": 1})
        assert len(null.registry) == 0
        assert null.now == 0.0
        assert null.slo is None and null.profiler is None


def _trace(t, cat, label, data):
    return {"t": t, "kind": "trace", "cat": cat, "label": label, "data": data}


#: (hook, args, the trace record it writes with a sink attached).
HOOK_RECORDS = [
    (
        "on_job_complete",
        (1.0, "p2", _job(0.25, 0.5, label="aaw.s1")),
        _trace(1.0, "job", "aaw.s1", {"processor": "p2", "demand": 0.25,
                                      "latency": 0.5}),
    ),
    (
        "on_message_delivered",
        (2.0, _message(512.0, 0.01, 0.03, label="aaw.m1")),
        _trace(2.0, "message", "aaw.m1", {"bytes": 512.0, "buffer_delay": 0.01,
                                          "total_delay": 0.03}),
    ),
    (
        "on_message_lost",
        (2.5, _message(label="aaw.m1")),
        _trace(2.5, "message", "aaw.m1.lost", {}),
    ),
    (
        "on_message_dropped",
        (3.0, _message(loss_count=4)),
        _trace(3.0, "message", "msg.dropped", {"losses": 4}),
    ),
    (
        "on_period_complete",
        (4.0, "aaw", _period(7, [], missed=True, latency=1.25)),
        _trace(4.0, "period", "aaw.complete", {"period": 7, "latency": 1.25,
                                               "missed": True}),
    ),
    (
        "on_period_abort",
        (5.0, "aaw", _period(8, [])),
        _trace(5.0, "period", "aaw.abort", {"period": 8}),
    ),
    (
        "on_fault_injected",
        (6.0, SimpleNamespace(kind="crash", target="p3", duration_s=None,
                              value=0.0)),
        _trace(6.0, "chaos", "crash.p3", {"duration_s": None, "value": 0.0}),
    ),
]
HOOK_IDS = [hook for hook, _, _ in HOOK_RECORDS]


class TestTraceRecords:
    def test_trace_streams_one_record(self):
        sink = MemorySink()
        hub = TelemetryHub(sink=sink)
        hub.trace(1.5, "rm", "rm.crash", {"cancelled": 3})
        assert sink.records == [_trace(1.5, "rm", "rm.crash", {"cancelled": 3})]

    def test_trace_without_sink_only_advances_now(self):
        hub = TelemetryHub()
        hub.trace(2.0, "failure", "p1.fail", {"lost": 0})
        assert hub.now == 2.0
        assert len(hub.registry) == 0

    @pytest.mark.parametrize("hook,args,record", HOOK_RECORDS, ids=HOOK_IDS)
    def test_hook_writes_its_trace_record(self, hook, args, record):
        sink = MemorySink()
        getattr(TelemetryHub(sink=sink), hook)(*args)
        assert sink.records == [record]

    @pytest.mark.parametrize("hook,args,record", HOOK_RECORDS, ids=HOOK_IDS)
    def test_hook_without_sink_still_counts(self, hook, args, record):
        hub = TelemetryHub()
        getattr(hub, hook)(*args)
        assert len(hub.registry) > 0
        assert hub.now == record["t"]

    def test_period_record_precedes_its_forecast_realizations(self):
        sink = MemorySink()
        hub = TelemetryHub(sink=sink)
        hub.begin_decision(1.0)
        hub.on_forecast(1.0, 0, 2, forecast_s=0.5, threshold_s=0.6, accepted=True)
        hub.end_decision(1.1, _event(placement={0: ["p0", "p1"]}, total_replicas=2))
        hub.on_period_complete(2.0, "aaw", _period(3, [_stage(0, 2, 0.4)]))
        kinds = [r["kind"] for r in sink.records]
        assert kinds == ["rm.span", "trace", "rm.forecast_realized"]
        assert sink.records[1]["label"] == "aaw.complete"

    def test_null_hub_writes_no_trace_records(self):
        sink = MemorySink()
        null = NullTelemetry()
        null.sink = sink
        null.trace(1.0, "rm", "rm.takeover", {})
        for hook, args, _ in HOOK_RECORDS:
            getattr(null, hook)(*args)
        assert sink.records == []
