"""The assembled distributed system.

:class:`System` bundles the engine, the processor set ``PR`` (paper §3,
property 12), the shared network, and the node clocks into one object
that the task executor, the profiler, and the resource manager all share.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.cluster.clock import ClockSyncService, NodeClock
from repro.cluster.network import Network
from repro.cluster.processor import Discipline, Processor
from repro.errors import ClusterError
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.telemetry.hub import TelemetryHub
from repro.units import ETHERNET_100_MBPS, MS


@dataclass
class System:
    """A homogeneous distributed system on a shared medium.

    Attributes
    ----------
    engine:
        The discrete-event engine everything runs on.
    processors:
        The processor set ``PR = {p1 ... pm}``.
    network:
        The shared Ethernet segment.
    clocks:
        One :class:`~repro.cluster.clock.NodeClock` per processor.
    clock_sync:
        The synchronization service (already started by
        :func:`build_system` when enabled).
    rng:
        Named random streams for all stochastic components.

    Every ``ut(p, t)`` the resource manager acts on comes
    from one memo: a ``{name: p.utilization()}`` dict in creation order,
    taken at most once per engine event.  Simulation time is frozen
    inside an event and windowed utilization is continuous across
    same-instant busy/idle transitions, so one reading per processor per
    event is exact; keying the memo on the executed-event count as well
    as the time means a reading fault set by one event is seen by the
    next event at the same instant.  ``p_min`` selections walk the same
    readings sorted by ``(ut, name)``, cached per readings dict, so the
    order is rebuilt with every new memo and never outlives it.
    """

    engine: Engine
    processors: list[Processor]
    network: Network
    clocks: list[NodeClock]
    clock_sync: ClockSyncService | None
    rng: RngRegistry

    _by_name: dict[str, Processor] = field(init=False, repr=False)
    _memo_key: tuple[float, int] | None = field(init=False, repr=False, default=None)
    _memo: dict[str, float] = field(init=False, repr=False, default_factory=dict)
    _order_of: dict[str, float] | None = field(init=False, repr=False, default=None)
    _order: list[tuple[float, str]] = field(
        init=False, repr=False, default_factory=list
    )

    def __post_init__(self) -> None:
        self._by_name = {p.name: p for p in self.processors}
        if len(self._by_name) != len(self.processors):
            raise ClusterError("duplicate processor names")

    # -- lookup ----------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of processors ``m``."""
        return len(self.processors)

    def processor(self, name: str) -> Processor:
        """Look up a processor by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ClusterError(f"unknown processor {name!r}") from None

    def clock_of(self, name: str) -> NodeClock:
        """Look up the clock of processor ``name``."""
        for clock in self.clocks:
            if clock.name == name:
                return clock
        raise ClusterError(f"no clock for processor {name!r}")

    # -- utilization views ---------------------------------------------------------

    def _readings(self) -> dict[str, float]:
        """``{name: ut(p, t)}`` in creation order; the one read path.

        Served from the per-event memo (the returned dict is the memo
        itself: callers must not mutate it).
        """
        engine = self.engine
        key = (engine.now, engine.executed_count)
        if key != self._memo_key:
            self._memo = {p.name: p.utilization() for p in self.processors}
            self._memo_key = key
        return self._memo

    def utilizations(self) -> dict[str, float]:
        """``ut(p, t)`` for every processor at the current time (a copy)."""
        return dict(self._readings())

    def utilizations_of(self, names: Iterable[str]) -> list[float]:
        """``ut(p, t)`` of the named processors, in the order given, from
        the same readings as the selections below."""
        readings = self._readings()
        try:
            return [readings[name] for name in names]
        except KeyError as exc:
            raise ClusterError(f"unknown processor {exc.args[0]!r}") from None

    def by_utilization(
        self, exclude: set[str] | frozenset[str] = frozenset()
    ) -> Iterator[tuple[float, str]]:
        """``(ut(p, t), name)`` of the live processors outside ``exclude``,
        least utilized first, ties by name.

        Figure 5's successive ``p_min`` picks in one walk: readings are
        frozen within an event, so each pick is the next entry past the
        ones before it.  Lazy: ``failed`` is checked as each processor
        is reached, so a walk sees every failure made before that point.
        """
        readings = self._readings()
        if readings is not self._order_of:
            self._order = sorted((u, name) for name, u in readings.items())
            self._order_of = readings
        by_name = self._by_name
        for entry in self._order:
            name = entry[1]
            if name not in exclude and not by_name[name].failed:
                yield entry

    def least_utilized(
        self, exclude: set[str] | frozenset[str] = frozenset()
    ) -> Processor | None:
        """The least-utilized *live* processor outside ``exclude``.

        This is step 3 of the paper's Figure 5 (``p_min``): the head of
        :meth:`by_utilization`.  ``None`` if the exclusion set (plus
        failures) covers every processor.
        """
        head = next(self.by_utilization(exclude), None)
        return None if head is None else self._by_name[head[1]]

    def processors_below(self, threshold: float) -> list[Processor]:
        """Live processors with ``ut(p, t) < threshold``, in creation order.

        This is Figure 7's candidate sweep (``for every p in PR``).
        """
        readings = self._readings()
        return [
            p for p in self.processors if not p.failed and readings[p.name] < threshold
        ]

    def mean_utilization(self) -> float:
        """Mean ``ut(p, t)`` over **all** processors (failed included)."""
        values = self._readings().values()
        return sum(values) / len(values)

    def live_processors(self) -> list[Processor]:
        """All processors currently up."""
        return [p for p in self.processors if not p.failed]

    def failed_processor_names(self) -> set[str]:
        """Names of processors currently down."""
        return {p.name for p in self.processors if p.failed}


def build_system(
    n_processors: int = 6,
    bandwidth_bps: float = ETHERNET_100_MBPS,
    discipline: Discipline = Discipline.PROCESSOR_SHARING,
    quantum: float = 1.0 * MS,
    utilization_window: float = 5.0,
    message_overhead_bytes: float = 1500.0,
    network_mode: str = "shared",
    message_loss_probability: float = 0.0,
    retransmit_timeout: float = 0.050,
    clock_drift_ppm: float = 20.0,
    clock_sync_enabled: bool = True,
    speed_factors: tuple[float, ...] | None = None,
    seed: int = 0,
    telemetry: TelemetryHub | None = None,
) -> System:
    """Construct the Table 1 baseline system (or a variant of it).

    Parameters mirror Table 1 defaults: 6 nodes, round-robin-equivalent
    scheduling, 100 Mbit/s Ethernet.  The returned system's clock sync
    service is already started when enabled.  ``speed_factors`` (one per
    processor) builds a heterogeneous machine for the extension study;
    omitted, all nodes run at the reference speed 1.0.  ``telemetry``
    wires a :class:`~repro.telemetry.hub.TelemetryHub` into the engine so
    every instrumented component reports to it.
    """
    if n_processors < 1:
        raise ClusterError(f"need at least one processor, got {n_processors}")
    if speed_factors is not None and len(speed_factors) != n_processors:
        raise ClusterError(
            f"{n_processors} processors need {n_processors} speed factors, "
            f"got {len(speed_factors)}"
        )
    sim_engine = Engine(telemetry=telemetry)
    rng = RngRegistry(seed)
    processors = [
        Processor(
            sim_engine,
            f"p{i + 1}",
            discipline=discipline,
            quantum=quantum,
            utilization_window=utilization_window,
            speed=1.0 if speed_factors is None else speed_factors[i],
        )
        for i in range(n_processors)
    ]
    network = Network(
        sim_engine,
        bandwidth_bps=bandwidth_bps,
        default_overhead_bytes=message_overhead_bytes,
        utilization_window=utilization_window,
        mode=network_mode,
        loss_probability=message_loss_probability,
        retransmit_timeout=retransmit_timeout,
        rng=rng.stream("net-loss") if message_loss_probability > 0.0 else None,
    )
    clock_rng = rng.stream("clock")
    drift = clock_drift_ppm * 1e-6
    clocks = [
        NodeClock(
            p.name,
            offset=clock_rng.uniform(-0.5e-3, 0.5e-3),
            drift=clock_rng.uniform(-drift, drift),
        )
        for p in processors
    ]
    sync: ClockSyncService | None = None
    if clock_sync_enabled:
        sync = ClockSyncService(sim_engine, clocks, rng=rng.stream("clock-sync"))
        sync.start()
    return System(
        engine=sim_engine,
        processors=processors,
        network=network,
        clocks=clocks,
        clock_sync=sync,
        rng=rng,
    )
