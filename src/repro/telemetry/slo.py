"""Declarative SLOs over live telemetry streams, with burn-rate alerts.

Raw metrics say what happened; an SLO says whether that was *okay*.  A
:class:`SloRule` declares an objective over one of the named signals
(deadline miss-rate, availability, forecast calibration error,
placement-decision latency, message loss) and the :class:`SloEngine`
evaluates every rule continuously in **simulation time** as the
:class:`~repro.telemetry.hub.TelemetryHub` feeds it events.

Evaluation follows the SRE multi-window burn-rate recipe: each rule
watches a short and a long trailing window, the *burn rate* is the
window's error consumption relative to the rule's error budget
(``1.0`` = exactly on budget), and an alert fires only when **both**
windows burn faster than the rule's threshold — the short window gives
fast detection, the long window suppresses blips.  Alerts are emitted
into the trace as structured ``slo.alert`` records (``firing`` /
``resolved`` transitions) and the engine publishes ``slo.*`` gauges so
breaches show up next to the raw metrics in every export.

Everything here is deterministic: evaluation points are simulation
times (the RM decision cadence), never the host clock.  The only
wall-clock signal, ``placement_latency``, takes its observations from
the opt-in :class:`~repro.telemetry.profile.RunProfiler` and is not in
:data:`DEFAULT_SLO_RULES` precisely so the default reports stay
bit-reproducible.

Rules can be built in code or loaded from a TOML document::

    [[slo.rules]]
    name = "miss-rate"
    signal = "deadline_miss_rate"
    objective = 0.02
    windows = [5.0, 20.0]
    burn_rate_threshold = 2.0
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.errors import TelemetryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.metrics import MetricsRegistry

#: Signal catalogue: ``kind`` decides both the event payload and the
#: pass direction.  ``max_ratio`` signals track a bad-event fraction
#: that must stay at or below the objective; ``min_ratio`` signals track
#: a good-event fraction that must stay at or above it; ``max_value``
#: signals track a numeric stream whose mean must stay at or below it.
SIGNALS: dict[str, str] = {
    "deadline_miss_rate": "max_ratio",
    "availability": "min_ratio",
    "forecast_calibration_error": "max_ratio",
    "message_loss_rate": "max_ratio",
    "placement_latency": "max_value",
}

#: Points kept per rule for burn-rate sparklines (one per evaluation).
MAX_BURN_POINTS = 4096


@dataclass(frozen=True)
class SloRule:
    """One declarative objective over a named telemetry signal.

    Attributes
    ----------
    name:
        Stable identifier (used in gauges, alerts, and reports).
    signal:
        One of :data:`SIGNALS`.
    objective:
        The target: maximum bad fraction (``max_ratio``), minimum good
        fraction (``min_ratio``), or maximum mean value (``max_value``).
    windows:
        ``(short, long)`` trailing windows in simulation seconds for
        burn-rate evaluation.
    burn_rate_threshold:
        Both windows must burn at or above this multiple of the error
        budget for an alert to fire (1.0 = exactly on budget).
    tolerance:
        Signal-specific knob: for ``forecast_calibration_error`` the
        absolute-percentage-error above which one forecast counts as
        badly calibrated.
    description:
        Free-form context for reports.
    """

    name: str
    signal: str
    objective: float
    windows: tuple[float, float] = (5.0, 20.0)
    burn_rate_threshold: float = 2.0
    tolerance: float = 0.5
    description: str = ""

    def __post_init__(self) -> None:
        if self.signal not in SIGNALS:
            raise TelemetryError(
                f"SLO rule {self.name!r}: unknown signal {self.signal!r}; "
                f"expected one of {', '.join(sorted(SIGNALS))}"
            )
        if not self.name:
            raise TelemetryError("SLO rule name must be non-empty")
        kind = SIGNALS[self.signal]
        if kind in ("max_ratio", "min_ratio") and not 0.0 <= self.objective <= 1.0:
            raise TelemetryError(
                f"SLO rule {self.name!r}: ratio objective must be in "
                f"[0, 1], got {self.objective}"
            )
        if kind == "max_value" and self.objective <= 0.0:
            raise TelemetryError(
                f"SLO rule {self.name!r}: value objective must be "
                f"positive, got {self.objective}"
            )
        short, long = self.windows
        if not 0.0 < short <= long:
            raise TelemetryError(
                f"SLO rule {self.name!r}: windows must satisfy "
                f"0 < short <= long, got {self.windows}"
            )
        if self.burn_rate_threshold <= 0.0:
            raise TelemetryError(
                f"SLO rule {self.name!r}: burn_rate_threshold must be "
                f"positive, got {self.burn_rate_threshold}"
            )

    @property
    def kind(self) -> str:
        """The signal's evaluation kind (see :data:`SIGNALS`)."""
        return SIGNALS[self.signal]

    @property
    def error_budget(self) -> float:
        """The per-event error budget the burn rate is measured against."""
        if self.kind == "min_ratio":
            return 1.0 - self.objective
        return self.objective


#: The deterministic default rule set (`repro slo` / `repro report`).
#: Windows are sized for the paper's 60-period (60 s) baseline runs.
DEFAULT_SLO_RULES: tuple[SloRule, ...] = (
    SloRule(
        name="deadline-miss-rate",
        signal="deadline_miss_rate",
        objective=0.02,
        windows=(5.0, 20.0),
        burn_rate_threshold=2.0,
        description="at most 2% of released periods may miss their deadline",
    ),
    SloRule(
        name="availability",
        signal="availability",
        objective=0.98,
        windows=(5.0, 20.0),
        burn_rate_threshold=2.0,
        description="at least 98% of released periods complete on time",
    ),
    SloRule(
        name="forecast-calibration",
        signal="forecast_calibration_error",
        objective=0.25,
        windows=(10.0, 30.0),
        burn_rate_threshold=2.0,
        tolerance=0.5,
        description="at most 25% of realized forecasts off by more than 50%",
    ),
    SloRule(
        name="message-loss",
        signal="message_loss_rate",
        objective=0.05,
        windows=(5.0, 20.0),
        burn_rate_threshold=2.0,
        description="at most 5% of network messages dropped after retries",
    ),
)


def load_slo_rules(source: str | Path | Mapping[str, Any]) -> tuple[SloRule, ...]:
    """Load rules from a TOML file/text or an already-parsed mapping.

    The document carries an ``[slo]`` table with a ``rules`` array (see
    the module docstring); a bare top-level ``rules`` array is also
    accepted.  Unknown keys in a rule entry raise
    :class:`~repro.errors.TelemetryError` (a typo would otherwise
    silently weaken an objective).
    """
    if isinstance(source, Mapping):
        data: Mapping[str, Any] = source
    else:
        import tomllib

        if isinstance(source, Path) or (
            "\n" not in str(source) and str(source).endswith(".toml")
        ):
            path = Path(source)
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as exc:
                raise TelemetryError(f"cannot read SLO rules {path}: {exc}") from exc
        else:
            text = str(source)
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise TelemetryError(f"malformed SLO TOML: {exc}") from exc
    entries = data.get("slo", data).get("rules") if "slo" in data else data.get("rules")
    if not entries:
        raise TelemetryError("SLO document has no [[slo.rules]] entries")
    known = {
        "name", "signal", "objective", "windows", "burn_rate_threshold",
        "tolerance", "description",
    }
    rules: list[SloRule] = []
    for entry in entries:
        unknown = sorted(set(entry) - known)
        if unknown:
            raise TelemetryError(
                f"SLO rule entry has unknown key(s) {', '.join(unknown)}; "
                f"valid keys: {', '.join(sorted(known))}"
            )
        kwargs = dict(entry)
        if "windows" in kwargs:
            kwargs["windows"] = tuple(float(w) for w in kwargs["windows"])
        rules.append(SloRule(**kwargs))
    names = [rule.name for rule in rules]
    if len(set(names)) != len(names):
        raise TelemetryError(f"duplicate SLO rule names in {sorted(names)}")
    return tuple(rules)


@dataclass(frozen=True)
class SloAlert:
    """One burn-rate alert transition (``firing`` or ``resolved``)."""

    time: float
    rule: str
    state: str  # "firing" | "resolved"
    burn_short: float
    burn_long: float

    def as_record(self) -> dict[str, Any]:
        """The structured trace record for this transition."""
        return {
            "t": self.time,
            "kind": "slo.alert",
            "rule": self.rule,
            "state": self.state,
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
        }


@dataclass(frozen=True)
class SloVerdict:
    """One rule's end-of-run outcome."""

    rule: SloRule
    observed: float
    n_events: int
    passed: bool
    alerts_fired: int
    worst_burn: float
    #: ``(time, long-window burn rate)`` per evaluation — the report's
    #: sparkline series.
    burn_history: tuple[tuple[float, float], ...] = ()

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (stable key order)."""
        return {
            "name": self.rule.name,
            "signal": self.rule.signal,
            "objective": self.rule.objective,
            "observed": self.observed,
            "n_events": self.n_events,
            "passed": self.passed,
            "alerts_fired": self.alerts_fired,
            "worst_burn": self.worst_burn,
            "burn_history": [[t, b] for t, b in self.burn_history],
        }


@dataclass(frozen=True)
class SloReport:
    """Every rule's verdict plus the run's alert log."""

    verdicts: tuple[SloVerdict, ...]
    alerts: tuple[SloAlert, ...] = ()

    @property
    def passed(self) -> bool:
        """Whether every rule met its objective."""
        return all(v.passed for v in self.verdicts)

    @property
    def breaches(self) -> tuple[SloVerdict, ...]:
        """The failing verdicts."""
        return tuple(v for v in self.verdicts if not v.passed)

    @property
    def exit_code(self) -> int:
        """CI-friendly exit code: 0 when every objective held, else 1."""
        return 0 if self.passed else 1

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (stable key order)."""
        return {
            "passed": self.passed,
            "verdicts": [v.as_dict() for v in self.verdicts],
            "alerts": [a.as_record() for a in self.alerts],
        }

    def render(self) -> str:
        """A compact text table (the ``repro slo`` output)."""
        from repro.formatting import format_table

        rows = [
            [
                v.rule.name,
                v.rule.signal,
                f"{v.rule.objective:.6g}",
                f"{v.observed:.6g}",
                v.n_events,
                v.alerts_fired,
                f"{v.worst_burn:.3g}",
                "PASS" if v.passed else "FAIL",
            ]
            for v in self.verdicts
        ]
        return format_table(
            ["slo", "signal", "objective", "observed", "events",
             "alerts", "worst burn", "verdict"],
            rows,
            title=f"SLO report: {'PASS' if self.passed else 'FAIL'} "
            f"({len(self.breaches)} breach(es), {len(self.alerts)} "
            "alert transition(s))",
        )


class _RuleState:
    """Mutable evaluation state for one rule (ring buffers + totals)."""

    __slots__ = (
        "rule", "kind", "budget", "events", "short_events",
        "w_short", "w_long", "total", "bad_total",
        "value_sum", "alerts_fired", "worst_burn", "active",
        "burn_history", "gauges",
    )

    def __init__(self, rule: SloRule) -> None:
        self.rule = rule
        # The rule's derived properties, flattened: record() and the
        # burn computations run on the RM decision cadence.
        self.kind = rule.kind
        self.budget = rule.error_budget
        #: ``(time, weight)`` — weight is 1.0 for a bad event / the
        #: observed value, 0.0 for a good event.  Good events still
        #: occupy a slot: window fractions need the denominator.
        #: ``events`` spans the long window; ``short_events`` mirrors
        #: the short-window tail so both burn rates come from running
        #: sums instead of a rescan per evaluation (event counts are
        #: the deque lengths).  Weights are 0/1 for the ratio signals,
        #: so the running sums stay exact under add/subtract.
        self.events: deque[tuple[float, float]] = deque()
        self.short_events: deque[tuple[float, float]] = deque()
        self.w_short = 0.0
        self.w_long = 0.0
        self.total = 0
        self.bad_total = 0.0
        self.value_sum = 0.0
        self.alerts_fired = 0
        self.worst_burn = 0.0
        self.active = False
        self.burn_history: deque[tuple[float, float]] = deque(
            maxlen=MAX_BURN_POINTS
        )
        #: Cached ``slo.*`` gauge handles, filled on first evaluation —
        #: per-evaluation registry lookups are too hot for the RM cadence.
        self.gauges: tuple[Any, ...] | None = None

    def record(self, now: float, weight: float) -> None:
        item = (now, weight)
        self.events.append(item)
        self.short_events.append(item)
        self.w_short += weight
        self.w_long += weight
        self.total += 1
        if self.kind == "max_value":
            self.value_sum += weight
        else:
            self.bad_total += weight

    def _burn(self, n: int, weight: float) -> float:
        if n == 0:
            return 0.0
        observed = weight / n
        budget = self.budget
        if budget <= 0.0:
            return float("inf") if observed > 0.0 else 0.0
        return observed / budget

    def _window_burns(self, now: float) -> tuple[float, float]:
        """Both windows' burn rates from the running sums.

        Evicts aged-out events first; amortized O(1) per evaluation
        (each event is evicted from each window exactly once).
        """
        short, long_ = self.rule.windows
        cutoff_short = now - short
        cutoff_long = now - long_
        short_events = self.short_events
        w_short = self.w_short
        while short_events and short_events[0][0] < cutoff_short:
            w_short -= short_events.popleft()[1]
        self.w_short = w_short
        events = self.events
        w_long = self.w_long
        while events and events[0][0] < cutoff_long:
            w_long -= events.popleft()[1]
        self.w_long = w_long
        return (
            self._burn(len(short_events), w_short),
            self._burn(len(events), w_long),
        )

    def prune(self, now: float) -> None:
        """Drop events older than the long window (ring-buffer bound)."""
        cutoff = now - self.rule.windows[1]
        events = self.events
        while events and events[0][0] < cutoff:
            self.w_long -= events.popleft()[1]

    @property
    def observed(self) -> float:
        """The whole-run observation the final verdict compares."""
        if self.total == 0:
            # No events: a min-ratio signal vacuously holds at 1.0,
            # the max-type signals at 0.0.
            return 1.0 if self.kind == "min_ratio" else 0.0
        if self.kind == "max_value":
            return self.value_sum / self.total
        bad_fraction = self.bad_total / self.total
        if self.kind == "min_ratio":
            return 1.0 - bad_fraction
        return bad_fraction

    @property
    def passed(self) -> bool:
        if self.kind == "min_ratio":
            return self.observed >= self.rule.objective
        return self.observed <= self.rule.objective


class SloEngine:
    """Evaluates a rule set against the hub's event stream in sim time.

    Parameters
    ----------
    rules:
        The declarative objectives (defaults to
        :data:`DEFAULT_SLO_RULES`).
    registry:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry`
        receiving ``slo.*`` gauges at every evaluation point.
    emit:
        Optional sink callback (the hub's ``emit``) receiving
        structured ``slo.alert`` records on alert transitions.
    """

    def __init__(
        self,
        rules: Iterable[SloRule] | None = None,
        registry: "MetricsRegistry | None" = None,
        emit: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        rule_list = tuple(rules) if rules is not None else DEFAULT_SLO_RULES
        if not rule_list:
            raise TelemetryError("SloEngine needs at least one rule")
        names = [rule.name for rule in rule_list]
        if len(set(names)) != len(names):
            raise TelemetryError(f"duplicate SLO rule names in {sorted(names)}")
        self.rules = rule_list
        self.registry = registry
        self.emit = emit
        self._states = {rule.name: _RuleState(rule) for rule in rule_list}
        self._by_signal: dict[str, list[_RuleState]] = {}
        for state in self._states.values():
            self._by_signal.setdefault(state.rule.signal, []).append(state)
        # The hot feed paths run per message / per period, so resolve
        # each signal's state list once instead of per event.
        self._period_states = tuple(
            self._by_signal.get("deadline_miss_rate", [])
            + self._by_signal.get("availability", [])
        )
        self._forecast_states = tuple(
            self._by_signal.get("forecast_calibration_error", [])
        )
        self._loss_states = tuple(self._by_signal.get("message_loss_rate", []))
        self._latency_states = tuple(self._by_signal.get("placement_latency", []))
        self._all_states = tuple(self._states.values())
        self.alerts: list[SloAlert] = []

    # -- signal feeds (called by the hub) -----------------------------------

    def on_period(self, now: float, missed: bool) -> None:
        """One released period finished (missed covers aborts too)."""
        bad = 1.0 if missed else 0.0
        for state in self._period_states:
            state.record(now, bad)

    def on_forecast_realized(self, now: float, ape: float) -> None:
        """One Figure 5 forecast paired with its realized latency."""
        for state in self._forecast_states:
            state.record(now, 1.0 if ape > state.rule.tolerance else 0.0)

    def on_message(self, now: float, dropped: bool) -> None:
        """One network message resolved (delivered or dropped)."""
        weight = 1.0 if dropped else 0.0
        for state in self._loss_states:
            state.record(now, weight)

    def on_decision_latency(self, now: float, wall_s: float) -> None:
        """Host wall-time of one RM decision (profiler-fed, opt-in)."""
        for state in self._latency_states:
            state.record(now, wall_s)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, now: float) -> None:
        """One burn-rate pass over every rule (the RM decision cadence).

        Window eviction happens inside ``_window_burns``, so the pass
        is amortized O(1) per rule; gauges are written through cached
        handles (``Gauge.set`` is pure value storage).
        """
        registry = self.registry
        for state in self._all_states:
            rule = state.rule
            burn_short, burn_long = state._window_burns(now)
            state.burn_history.append((now, burn_long))
            # Both-windows criterion: the lower burn is the binding one.
            worst = burn_short if burn_short < burn_long else burn_long
            if worst > state.worst_burn:
                state.worst_burn = worst
            firing = worst >= rule.burn_rate_threshold
            if firing and not state.active:
                state.active = True
                state.alerts_fired += 1
                self._transition(now, state, "firing", burn_short, burn_long)
            elif not firing and state.active:
                state.active = False
                self._transition(now, state, "resolved", burn_short, burn_long)
            if registry is not None:
                if state.gauges is None:
                    labels = {"slo": rule.name}
                    state.gauges = (
                        registry.gauge("slo.observed", labels),
                        registry.gauge("slo.burn_short", labels),
                        registry.gauge("slo.burn_long", labels),
                        registry.gauge("slo.ok", labels),
                    )
                g_observed, g_short, g_long, g_ok = state.gauges
                observed = state.observed
                if state.kind == "min_ratio":
                    ok = observed >= rule.objective
                else:
                    ok = observed <= rule.objective
                g_observed.value = observed
                g_short.value = burn_short
                g_long.value = burn_long
                g_ok.value = 1.0 if ok else 0.0

    def _transition(
        self,
        now: float,
        state: _RuleState,
        transition: str,
        burn_short: float,
        burn_long: float,
    ) -> None:
        alert = SloAlert(
            time=now,
            rule=state.rule.name,
            state=transition,
            burn_short=burn_short,
            burn_long=burn_long,
        )
        self.alerts.append(alert)
        if self.registry is not None:
            self.registry.counter(
                "slo.alert_transitions", {"slo": state.rule.name}
            ).inc()
        if self.emit is not None:
            self.emit(alert.as_record())

    # -- the final verdict --------------------------------------------------

    def report(self) -> SloReport:
        """Freeze every rule's whole-run verdict into a report."""
        verdicts = tuple(
            SloVerdict(
                rule=state.rule,
                observed=state.observed,
                n_events=state.total,
                passed=state.passed,
                alerts_fired=state.alerts_fired,
                worst_burn=state.worst_burn,
                burn_history=tuple(state.burn_history),
            )
            for state in self._states.values()
        )
        return SloReport(verdicts=verdicts, alerts=tuple(self.alerts))
