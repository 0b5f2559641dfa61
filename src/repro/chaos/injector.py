"""The chaos injector: schedules compiled fault processes on a system.

:meth:`ChaosInjector.arm` compiles every spec of its scenario against a
dedicated rng stream (``chaos.<spec.stream>``) and schedules the
resulting injections on the engine.  Because the streams are derived
from the system's own :class:`~repro.sim.rng.RngRegistry`, a scenario
replays bit-identically under the same master seed — and because they
are *separate* streams, arming the ``"none"`` scenario (or not arming
at all) leaves every other stream's draws untouched.

Two fault classes act through wrappers rather than engine events:

* ``sensor_dropout`` — :meth:`wrap_workload` returns a callable that
  repeats the last pre-dropout track count inside dropout windows;
* ``estimator_bias`` — :meth:`wrap_estimator` returns a
  :class:`FaultyEstimator` that multiplies every ``eex``/``ecd`` query
  by the window's bias factor.

Both wrappers are identity pass-throughs when the scenario contains no
matching spec, so wiring them unconditionally costs nothing.
"""

from __future__ import annotations

from typing import Callable

from repro.chaos.faults import Injection
from repro.chaos.scenario import ChaosScenario
from repro.cluster.topology import System
from repro.errors import ChaosError


class _ConstantReading:
    """A reading fault that reports a fixed utilization value.

    Module-level (not a lambda) so faulted processors pickle for run
    snapshots (:mod:`repro.recovery`).
    """

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value

    def __call__(self, reading: float) -> float:
        return self.value

    def __getstate__(self) -> dict[str, float]:
        return {"value": self.value}

    def __setstate__(self, state: dict[str, float]) -> None:
        self.value = state["value"]


class _WindowEnd:
    """Scheduled end of a loss/bandwidth spike window."""

    __slots__ = ("injector", "attr", "value", "apply_name")

    def __init__(
        self, injector: "ChaosInjector", attr: str, value: float, apply_name: str
    ) -> None:
        self.injector = injector
        self.attr = attr  # injector attribute holding the active list
        self.value = value
        self.apply_name = apply_name

    def __call__(self) -> None:
        active: list[float] = getattr(self.injector, self.attr)
        active.remove(self.value)
        getattr(self.injector, self.apply_name)()

    def __getstate__(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)


class _ReadingFaultEnd:
    """Scheduled end of a reading freeze/corrupt window."""

    __slots__ = ("injector", "name")

    def __init__(self, injector: "ChaosInjector", name: str) -> None:
        self.injector = injector
        self.name = name

    def __call__(self) -> None:
        injector = self.injector
        remaining = injector._active_reading_faults[self.name] - 1
        injector._active_reading_faults[self.name] = remaining
        if remaining == 0:
            injector.system.processor(self.name).reading_fault = None

    def __getstate__(self) -> dict[str, object]:
        return {"injector": self.injector, "name": self.name}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.injector = state["injector"]
        self.name = state["name"]


class ChaosInjector:
    """Applies a :class:`~repro.chaos.scenario.ChaosScenario` to a system."""

    def __init__(self, system: System, scenario: ChaosScenario) -> None:
        self.system = system
        self.scenario = scenario
        self._armed = False
        #: Every compiled injection, sorted by (time, kind, target) —
        #: the ground truth the resilience scorecard measures against.
        self.fault_log: list[Injection] = []
        self._base_loss = 0.0
        self._base_bandwidth = 0.0
        self._active_losses: list[float] = []
        self._active_bandwidth_factors: list[float] = []
        #: Per-processor count of active reading faults (freeze/corrupt
        #: windows may overlap; the hook is cleared when the last ends).
        self._active_reading_faults: dict[str, int] = {}
        self._sensor_windows: list[tuple[float, float]] = []
        self._estimator_windows: list[tuple[float, float, float]] = []
        #: Handler for ``rm_crash`` injections.  The failover coordinator
        #: (:mod:`repro.recovery.failover`) registers itself here; without
        #: a handler the injection is recorded but has no effect (the
        #: controller has no separate process to kill in a plain run).
        self.on_rm_crash: Callable[[Injection], None] | None = None

    # -- life-cycle ---------------------------------------------------------

    def arm(self, horizon_s: float) -> "ChaosInjector":
        """Compile the scenario and schedule every injection (once)."""
        if self._armed:
            raise ChaosError("chaos injector already armed")
        if horizon_s <= 0.0:
            raise ChaosError(f"horizon_s must be positive, got {horizon_s}")
        self._armed = True
        names = tuple(p.name for p in self.system.processors)
        injections: list[Injection] = []
        for spec in self.scenario.faults:
            rng = self.system.rng.stream(f"chaos.{spec.stream}")
            injections.extend(spec.compile(rng, horizon_s, names))
        injections.sort(key=lambda i: (i.time, i.kind, i.target))
        self.fault_log = injections
        network = self.system.network
        self._base_loss = network.loss_probability
        self._base_bandwidth = network.bandwidth_bps
        if network.rng is None and any(
            i.kind == "loss_spike" for i in injections
        ):
            network.rng = self.system.rng.stream("chaos.net-loss")
        for injection in injections:
            if injection.kind == "sensor_dropout":
                assert injection.duration_s is not None
                self._sensor_windows.append(
                    (injection.time, injection.time + injection.duration_s)
                )
            elif injection.kind == "estimator_bias":
                assert injection.duration_s is not None
                self._estimator_windows.append(
                    (
                        injection.time,
                        injection.time + injection.duration_s,
                        injection.value,
                    )
                )
            self.system.engine.schedule_at(
                injection.time,
                self._inject,
                injection,
                label=f"chaos.{injection.kind}",
            )
        return self

    @property
    def armed(self) -> bool:
        """Whether :meth:`arm` has run."""
        return self._armed

    def faults_by_kind(self) -> dict[str, int]:
        """Injection counts per fault kind (for the scorecard)."""
        counts: dict[str, int] = {}
        for injection in self.fault_log:
            counts[injection.kind] = counts.get(injection.kind, 0) + 1
        return counts

    # -- injection dispatch -------------------------------------------------

    def _inject(self, injection: Injection) -> None:
        engine = self.system.engine
        telemetry = engine.telemetry
        if telemetry.enabled:
            telemetry.on_fault_injected(engine.now, injection)
        if injection.kind == "crash":
            self._inject_crash(injection)
        elif injection.kind == "loss_spike":
            self._begin_window(
                injection, "_active_losses", injection.value, "_apply_loss"
            )
        elif injection.kind == "bandwidth_spike":
            self._begin_window(
                injection,
                "_active_bandwidth_factors",
                injection.value,
                "_apply_bandwidth",
            )
        elif injection.kind == "clock_step":
            self.system.clock_of(injection.target).offset += injection.value
        elif injection.kind == "reading_freeze":
            processor = self.system.processor(injection.target)
            frozen = processor.meter.utilization(
                self.system.engine.now, processor.utilization_window
            )
            self._set_reading_fault(injection, _ConstantReading(frozen))
        elif injection.kind == "reading_corrupt":
            self._set_reading_fault(injection, _ConstantReading(injection.value))
        elif injection.kind == "rm_crash":
            if self.on_rm_crash is not None:
                self.on_rm_crash(injection)
        # sensor_dropout / estimator_bias act through the wrappers; the
        # scheduled event exists for the trace and telemetry records.

    def _inject_crash(self, injection: Injection) -> None:
        processor = self.system.processor(injection.target)
        processor.fail()
        if injection.duration_s is not None:
            self.system.engine.schedule(
                injection.duration_s,
                processor.recover,
                label=f"chaos.recover.{processor.name}",
            )

    def _begin_window(
        self, injection: Injection, attr: str, value: float, apply_name: str
    ) -> None:
        assert injection.duration_s is not None
        active: list[float] = getattr(self, attr)
        active.append(value)
        getattr(self, apply_name)()
        self.system.engine.schedule(
            injection.duration_s,
            _WindowEnd(self, attr, value, apply_name),
            label=f"chaos.end.{injection.kind}",
        )

    def _apply_loss(self) -> None:
        self.system.network.loss_probability = max(
            self._base_loss, *self._active_losses, 0.0
        )

    def _apply_bandwidth(self) -> None:
        factor = min(self._active_bandwidth_factors, default=1.0)
        self.system.network.bandwidth_bps = self._base_bandwidth * factor

    def _set_reading_fault(
        self, injection: Injection, fault: Callable[[float], float]
    ) -> None:
        assert injection.duration_s is not None
        name = injection.target
        processor = self.system.processor(name)
        processor.reading_fault = fault
        self._active_reading_faults[name] = (
            self._active_reading_faults.get(name, 0) + 1
        )
        self.system.engine.schedule(
            injection.duration_s,
            _ReadingFaultEnd(self, name),
            label=f"chaos.end.{injection.kind}",
        )

    # -- wrappers -----------------------------------------------------------

    def in_sensor_window(self, now: float) -> bool:
        """Whether the workload sensor is dropped out at ``now``."""
        return any(start <= now < end for start, end in self._sensor_windows)

    def estimator_factor(self, now: float) -> float:
        """Multiplier applied to estimator queries at ``now``."""
        for start, end, factor in self._estimator_windows:
            if start <= now < end:
                return factor
        return 1.0

    def wrap_workload(
        self, workload: Callable[[int], float]
    ) -> Callable[[int], float]:
        """Wrap a per-period workload function with sensor dropouts."""
        if not self._armed:
            raise ChaosError("arm() the injector before wrapping the workload")
        if not self._sensor_windows:
            return workload
        return _SensorFaultedWorkload(self, workload)

    def wrap_estimator(self, estimator):
        """Wrap an estimator with the scenario's bias windows."""
        if not self._armed:
            raise ChaosError("arm() the injector before wrapping the estimator")
        if not self._estimator_windows:
            return estimator
        return FaultyEstimator(estimator, self)


class _SensorFaultedWorkload:
    """Repeats the last healthy reading inside dropout windows.

    The inner pattern is still evaluated every period (its rng draws, if
    any, stay aligned with a fault-free run); only the *reported* value
    is frozen.
    """

    def __init__(
        self, injector: ChaosInjector, inner: Callable[[int], float]
    ) -> None:
        self._injector = injector
        self._inner = inner
        self._last: float | None = None

    def __call__(self, period_index: int) -> float:
        value = self._inner(period_index)
        now = self._injector.system.engine.now
        if self._injector.in_sensor_window(now) and self._last is not None:
            return self._last
        self._last = value
        return value


class FaultyEstimator:
    """Delegating estimator that applies windowed bias factors.

    Every latency-producing query (``eex_seconds``,
    ``eex_seconds_many``, ``ecd_seconds``, ``chain_estimate_seconds``,
    ``end_to_end_estimate_seconds``) is multiplied by the bias factor
    active at the engine's current time; everything else — including
    ``task`` and duck-typed learning hooks like ``observe_stage`` —
    passes straight through to the wrapped estimator.
    """

    def __init__(self, inner, injector: ChaosInjector) -> None:
        self._inner = inner
        self._injector = injector

    @property
    def task(self):
        """The wrapped estimator's task model."""
        return self._inner.task

    def _factor(self) -> float:
        return self._injector.estimator_factor(
            self._injector.system.engine.now
        )

    def eex_seconds(self, subtask_index, d_tracks, utilization):
        """Biased per-stage execution estimate."""
        return self._inner.eex_seconds(
            subtask_index, d_tracks, utilization
        ) * self._factor()

    def eex_seconds_many(self, subtask_index, d_tracks, utilizations):
        """Biased batched execution estimates."""
        return self._inner.eex_seconds_many(
            subtask_index, d_tracks, utilizations
        ) * self._factor()

    def ecd_seconds(self, message_index, d_tracks, total_tracks):
        """Biased per-message communication estimate."""
        return self._inner.ecd_seconds(
            message_index, d_tracks, total_tracks
        ) * self._factor()

    def chain_estimate_seconds(self, d_tracks, utilization):
        """Biased per-stage execution/communication estimate chains."""
        factor = self._factor()
        exec_est, comm_est = self._inner.chain_estimate_seconds(
            d_tracks, utilization
        )
        return (
            [value * factor for value in exec_est],
            [value * factor for value in comm_est],
        )

    def end_to_end_estimate_seconds(self, *args, **kwargs):
        """Biased end-to-end latency estimate."""
        return self._inner.end_to_end_estimate_seconds(
            *args, **kwargs
        ) * self._factor()

    def __getattr__(self, name):
        return getattr(self._inner, name)
