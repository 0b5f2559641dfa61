"""The telemetry hub: one facade over metrics, spans, and sinks.

The hub is the simulator's one instrumentation channel.  Instrumented
components (engine, processors, network, executor, RM loop, chaos,
failover) hold a :class:`TelemetryHub` and guard every call site with
the cheap ``hub.enabled`` class attribute; each site makes one hub call.
The default :data:`NULL_TELEMETRY` singleton has ``enabled = False``, so
an uninstrumented run pays one attribute read and a falsy branch per
*instrumentation site*, never per event.

With a sink attached, the ``on_*`` hooks also write the site's
``trace`` record (``{"t", "kind": "trace", "cat", "label", "data"}``),
and sites without a hook of their own call :meth:`TelemetryHub.trace`.
Executed calendar events are not recorded one by one: the engine
reports each run loop as a batch (:meth:`TelemetryHub.on_engine_run`).

The hub deliberately takes duck-typed simulation objects (period
records, monitor reports, RM events) rather than importing the layers
that define them: ``repro.telemetry`` sits next to the foundation
modules in the layering contract and must stay importable from
``sim``/``cluster``/``runtime``/``core`` without cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sinks import TraceSink
from repro.telemetry.spans import DecisionSpan, ForecastEval, SpanRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.profile import RunProfiler
    from repro.telemetry.slo import SloEngine, SloRule

#: Buckets for signed forecast errors (seconds; negative = optimistic).
FORECAST_ERROR_BUCKETS: tuple[float, ...] = (
    -1.0, -0.5, -0.25, -0.1, -0.05, -0.01, 0.0,
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0,
)


class TelemetryHub:
    """Aggregates a metrics registry, a span recorder, and a trace sink.

    Parameters
    ----------
    sink:
        Streaming destination for trace, span and realization records
        (``None`` keeps metrics and spans in memory only).
    max_spans:
        Completed decision spans retained in memory.
    """

    #: Class attribute so the guard is one LOAD_ATTR, no property call.
    enabled: bool = True

    def __init__(
        self, sink: TraceSink | None = None, max_spans: int = 4096
    ) -> None:
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(max_spans=max_spans)
        self.sink = sink
        #: Largest simulation time any instrumentation call has seen —
        #: the default snapshot/export timestamp.
        self.now = 0.0
        #: Optional consumers armed per run (see :meth:`arm_slo` /
        #: :meth:`arm_profiler`); instrumentation treats ``None`` as off.
        self.slo: SloEngine | None = None
        self.profiler: RunProfiler | None = None
        # Pre-resolved profiler handle for the per-message hot path
        # (set by arm_profiler; None keeps the path free when unarmed).
        self._msg_stat: Any | None = None

    # -- plumbing -----------------------------------------------------------

    def emit(self, record: dict[str, Any]) -> None:
        """Forward one trace record to the sink, if any."""
        if self.sink is not None:
            self.sink.write(record)

    def trace(self, now: float, cat: str, label: str, data: dict[str, Any]) -> None:
        """Write one ``trace`` record (sites with no ``on_*`` hook)."""
        self._tick(now)
        if self.sink is not None:
            self.sink.write(
                {"t": now, "kind": "trace", "cat": cat, "label": label, "data": data}
            )

    def close(self) -> None:
        """Close any dangling span and flush the sink."""
        span = self.spans.end(self.now)
        if span is not None:
            self.emit(span.as_record())
        if self.sink is not None:
            self.sink.close()

    def _tick(self, now: float) -> None:
        if now > self.now:
            self.now = now

    # -- optional consumers --------------------------------------------------

    def arm_slo(self, rules: "Iterable[SloRule] | None" = None) -> "SloEngine":
        """Attach an SLO engine fed by this hub's event stream.

        The engine shares the hub's registry (``slo.*`` gauges) and
        sink (``slo.alert`` records); its burn-rate evaluation runs at
        every :meth:`end_decision` — the RM cadence, in sim time.
        """
        from repro.telemetry.slo import SloEngine

        self.slo = SloEngine(rules, registry=self.registry, emit=self.emit)
        return self.slo

    def arm_profiler(self) -> "RunProfiler":
        """Attach a :class:`~repro.telemetry.profile.RunProfiler`."""
        from repro.telemetry.profile import RunProfiler

        self.profiler = RunProfiler()
        self._msg_stat = self.profiler.counter("net.message")
        return self.profiler

    # -- run-level context ---------------------------------------------------

    def set_run_meta(self, **meta: Any) -> None:
        """Emit run-level context (policy, pattern, horizon, ...)."""
        self.emit({"t": 0.0, "kind": "run.meta", **meta})

    # -- engine -------------------------------------------------------------

    def on_engine_run(self, now: float, executed: int) -> None:
        """Account a finished ``run``/``run_until`` batch (not per event)."""
        self._tick(now)
        self.registry.counter("sim.events_executed").inc(executed)
        self.registry.gauge("sim.time").set(now)

    # -- cluster ------------------------------------------------------------

    def on_job_complete(self, now: float, processor: str, job: Any) -> None:
        """Account one completed CPU job (a duck-typed ``Job``)."""
        self._tick(now)
        latency = job.latency
        if self.sink is not None:
            data = {"processor": processor, "demand": job.demand, "latency": latency}
            self.trace(now, "job", job.label or job.kind, data)
        labels = {"processor": processor}
        self.registry.counter("proc.jobs_completed", labels).inc()
        self.registry.histogram("proc.job_latency_seconds", labels).observe(
            latency
        )

    def on_message_delivered(self, now: float, message: Any) -> None:
        """Account one delivered network message (a duck-typed ``Message``)."""
        self._tick(now)
        wire_bytes = message.wire_bytes
        buffer_delay = message.buffer_delay
        total_delay = message.total_delay
        self.registry.counter("net.messages_delivered").inc()
        self.registry.counter("net.bytes_delivered").inc(wire_bytes)
        self.registry.histogram("net.message_delay_seconds").observe(total_delay)
        self.registry.histogram("net.buffer_delay_seconds").observe(buffer_delay)
        if self._msg_stat is not None:
            self._msg_stat.events += 1
        if self.slo is not None:
            self.slo.on_message(now, dropped=False)
        if self.sink is not None:
            data = {
                "bytes": wire_bytes,
                "buffer_delay": buffer_delay,
                "total_delay": total_delay,
            }
            self.trace(now, "message", message.label or "msg", data)

    def on_message_lost(self, now: float, message: Any) -> None:
        """Account one lost transmission (retry pending)."""
        self._tick(now)
        if self.sink is not None:
            self.trace(now, "message", f"{message.label or 'msg'}.lost", {})
        self.registry.counter("net.messages_lost").inc()

    def on_message_dropped(self, now: float, message: Any) -> None:
        """Account one message abandoned after exhausting its retries."""
        self._tick(now)
        if self.sink is not None:
            label = f"{message.label or 'msg'}.dropped"
            self.trace(now, "message", label, {"losses": message.loss_count})
        self.registry.counter("net.messages_dropped").inc()
        if self._msg_stat is not None:
            self._msg_stat.events += 1
        if self.slo is not None:
            self.slo.on_message(now, dropped=True)

    # -- runtime ------------------------------------------------------------

    def on_period_complete(self, now: float, task: str, record: Any) -> None:
        """Account a finished period of ``task`` and realize its forecasts.

        ``record`` is a duck-typed
        :class:`~repro.runtime.records.PeriodRecord`.
        """
        self._tick(now)
        if self.sink is not None:
            data = {
                "period": record.period_index,
                "latency": record.latency,
                "missed": record.missed,
            }
            self.trace(now, "period", f"{task}.complete", data)
        self.registry.counter("task.periods_completed").inc()
        if record.missed:
            self.registry.counter("task.periods_missed").inc()
        if self.slo is not None:
            self.slo.on_period(now, missed=bool(record.missed))
        latency = record.latency
        if latency is not None:
            self.registry.histogram("task.period_latency_seconds").observe(
                latency
            )
        for stage in record.stages:
            stage_latency = stage.stage_latency
            if stage_latency is None:
                continue
            for forecast in self.spans.realize(
                stage.subtask_index, stage.replica_count, stage_latency
            ):
                self._record_realization(now, record.period_index, forecast)

    def on_period_abort(self, now: float, task: str, record: Any) -> None:
        """Account a period of ``task`` shed by the overload watchdog."""
        self._tick(now)
        if self.sink is not None:
            data = {"period": record.period_index}
            self.trace(now, "period", f"{task}.abort", data)
        self.registry.counter("task.periods_aborted").inc()
        self.registry.counter("task.periods_missed").inc()
        if self.slo is not None:
            self.slo.on_period(now, missed=True)

    def _record_realization(
        self, now: float, period_index: int, forecast: ForecastEval
    ) -> None:
        error = forecast.error_s
        if error is None:  # pragma: no cover - realize() always sets it
            return
        if self.slo is not None:
            realized = forecast.realized_s
            if realized:
                self.slo.on_forecast_realized(now, abs(error) / realized)
        self.registry.histogram(
            "rm.forecast_error_seconds", buckets=FORECAST_ERROR_BUCKETS
        ).observe(error)
        self.emit(
            {
                "t": now,
                "kind": "rm.forecast_realized",
                "period": period_index,
                "subtask": forecast.subtask_index,
                "replicas": forecast.replica_count,
                "forecast_s": forecast.forecast_s,
                "observed_s": forecast.realized_s,
                "error_s": error,
            }
        )

    # -- the RM decision cycle ----------------------------------------------

    def begin_decision(self, now: float) -> DecisionSpan:
        """Open the span for one manager step."""
        self._tick(now)
        self.registry.counter("rm.steps").inc()
        return self.spans.begin(now)

    def on_monitor_report(self, now: float, report: Any) -> None:
        """Attach a monitor pass's verdicts (duck-typed MonitorReport)."""
        self._tick(now)
        span = self.spans.current
        for verdict in report.verdicts:
            action = verdict.action.value
            self.registry.counter("rm.verdicts", {"action": action}).inc()
            if span is not None:
                span.verdicts.append(
                    {
                        "subtask": verdict.subtask_index,
                        "action": action,
                        "mean_stage_latency": verdict.mean_stage_latency,
                        "budget": verdict.budget,
                        "slack": verdict.slack,
                        "overdue": verdict.overdue,
                    }
                )

    def on_forecast(
        self,
        now: float,
        subtask_index: int,
        replica_count: int,
        forecast_s: float,
        threshold_s: float,
        accepted: bool,
    ) -> ForecastEval:
        """Record one Figure 5 forecast evaluation (one growth step)."""
        self._tick(now)
        self.registry.counter("rm.forecast_evaluations").inc()
        forecast = ForecastEval(
            subtask_index=subtask_index,
            replica_count=replica_count,
            forecast_s=forecast_s,
            threshold_s=threshold_s,
            accepted=accepted,
        )
        span = self.spans.current
        if span is not None:
            span.forecasts.append(forecast)
        if accepted:
            self.spans.await_realization(forecast)
        return forecast

    def on_cluster_utilization(self, now: float, min_u: float, name: str) -> None:
        """Record the least-utilized processor seen by a monitor pass."""
        self._tick(now)
        self.registry.gauge("cluster.min_utilization").set(min_u)
        self.registry.counter(
            "cluster.min_utilization_samples", {"processor": name}
        ).inc()

    def on_breaker_state(self, now: float, state: str, trips: int) -> None:
        """Export the forecast circuit breaker's state (hardened loop).

        ``rm.breaker_open`` is 1 while the breaker is open (fallback
        policy active), 0 when closed or half-open; ``rm.breaker_trips``
        is the cumulative trip count.
        """
        self._tick(now)
        self.registry.gauge("rm.breaker_open").set(
            1.0 if state == "open" else 0.0
        )
        self.registry.gauge("rm.breaker_trips").set(trips)

    def on_fault_injected(self, now: float, injection: Any) -> None:
        """Account one chaos fault (a duck-typed ``Injection``) by kind."""
        self._tick(now)
        kind = injection.kind
        if self.sink is not None:
            data = {"duration_s": injection.duration_s, "value": injection.value}
            self.trace(now, "chaos", f"{kind}.{injection.target}", data)
        self.registry.counter("chaos.faults_injected", {"kind": kind}).inc()

    def end_decision(self, now: float, event: Any) -> DecisionSpan | None:
        """Close the step's span from its RMEvent and stream it out."""
        self._tick(now)
        span = self.spans.current
        if span is None:
            return None
        for outcome in event.outcomes:
            if outcome.changed:
                span.actions.append(
                    {
                        "kind": "replicate",
                        "subtask": outcome.subtask_index,
                        "processors": list(outcome.added_processors),
                        "success": outcome.success,
                        "forecast_s": outcome.forecast_latency,
                    }
                )
        for subtask_index, processor in event.shutdowns:
            span.actions.append(
                {
                    "kind": "shutdown",
                    "subtask": subtask_index,
                    "processors": [processor],
                }
            )
        for subtask_index, dead, target in event.recoveries:
            span.actions.append(
                {
                    "kind": "recovery",
                    "subtask": subtask_index,
                    "processors": [dead, target or "evicted"],
                }
            )
        span.replicas = {
            subtask: len(processors)
            for subtask, processors in sorted(event.placement.items())
        }
        if span.acted:
            self.registry.counter("rm.actions").inc()
        self.registry.time_gauge("rm.replicas_total").set(
            now, event.total_replicas
        )
        closed = self.spans.end(now)
        if closed is not None:
            self.emit(closed.as_record())
        if self.slo is not None:
            self.slo.evaluate(now)
        return closed


class NullTelemetry(TelemetryHub):
    """The disabled hub: every call is a no-op behind ``enabled=False``.

    Instrumentation sites must check ``enabled`` before calling in —
    the overrides below are a second line of defence for call sites
    that cannot afford the branch asymmetry, not an invitation to skip
    the guard.
    """

    enabled = False

    def __reduce__(self) -> str:
        # Pickle as a reference to the module-level singleton: engine
        # hot loops compare ``telemetry.enabled`` on the shared default
        # hub, and a run snapshot must restore to the *same* object, not
        # a copy carrying fresh registries.
        return "NULL_TELEMETRY"

    def emit(self, record: dict[str, Any]) -> None:
        """Drop the record."""
        return

    def trace(self, now: float, cat: str, label: str, data: dict[str, Any]) -> None:
        """Drop the trace record."""
        return

    def on_engine_run(self, now: float, executed: int) -> None:
        """Drop the engine-run accounting."""
        return

    def on_job_complete(self, now: float, processor: str, job: Any) -> None:
        """Drop the job completion."""
        return

    def on_message_delivered(self, now: float, message: Any) -> None:
        """Drop the message delivery."""
        return

    def on_message_lost(self, now: float, message: Any) -> None:
        """Drop the message loss."""
        return

    def on_message_dropped(self, now: float, message: Any) -> None:
        """Drop the message-drop accounting."""
        return

    def on_period_complete(self, now: float, task: str, record: Any) -> None:
        """Drop the period completion."""
        return

    def on_period_abort(self, now: float, task: str, record: Any) -> None:
        """Drop the period abort."""
        return

    def on_cluster_utilization(self, now: float, min_u: float, name: str) -> None:
        """Drop the cluster utilization sample."""
        return

    def on_breaker_state(self, now: float, state: str, trips: int) -> None:
        """Drop the breaker state."""
        return

    def on_fault_injected(self, now: float, injection: Any) -> None:
        """Drop the fault injection."""
        return


#: Shared disabled hub — the default for every engine/system.
NULL_TELEMETRY = NullTelemetry()
