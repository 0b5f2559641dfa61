"""The assembled distributed system.

:class:`System` bundles the engine, the processor set ``PR`` (paper §3,
property 12), the shared network, and the node clocks into one object
that the task executor, the profiler, and the resource manager all share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.clock import ClockSyncService, NodeClock
from repro.cluster.index import UtilizationIndex
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
    """

    engine: Engine
    processors: list[Processor]
    network: Network
    clocks: list[NodeClock]
    clock_sync: ClockSyncService | None
    rng: RngRegistry
    #: Serve utilization queries from the incremental index (bit-identical
    #: to the scan; disable to benchmark the pre-index path).
    use_utilization_index: bool = True

    _by_name: dict[str, Processor] = field(init=False, repr=False)
    utilization_index: UtilizationIndex | None = field(
        init=False, repr=False, default=None
    )

    def __post_init__(self) -> None:
        self._by_name = {p.name: p for p in self.processors}
        if len(self._by_name) != len(self.processors):
            raise ClusterError("duplicate processor names")
        if self.use_utilization_index and self.processors:
            self.utilization_index = UtilizationIndex(self.engine, self.processors)

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

    def utilizations(self, window: float | None = None) -> dict[str, float]:
        """``ut(p, t)`` for every processor at the current time."""
        return {p.name: p.utilization(window=window) for p in self.processors}

    def least_utilized(
        self, exclude: set[str] | frozenset[str] = frozenset(), window: float | None = None
    ) -> Processor | None:
        """The least-utilized *live* processor outside ``exclude``.

        This is step 3 of the paper's Figure 5 (``p_min``); failed
        processors are never candidates.  ``None`` if the exclusion set
        (plus failures) covers every processor.  Ties break by name.

        Served from the incremental utilization index (O(log P) on the
        hot path, bit-identical results); non-default windows and
        index-less systems fall back to the full scan.
        """
        if self.utilization_index is None or window is not None:
            return self.least_utilized_scan(exclude=exclude, window=window)
        found = self.utilization_index.argmin(exclude=exclude)
        if found is None:
            return None
        return self._by_name[found[1]]

    def least_utilized_scan(
        self, exclude: set[str] | frozenset[str] = frozenset(), window: float | None = None
    ) -> Processor | None:
        """Reference O(P) implementation of :meth:`least_utilized`."""
        candidates = [
            p for p in self.processors if p.name not in exclude and not p.failed
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda p: (p.utilization(window=window), p.name))

    def processors_below(
        self, threshold: float, window: float | None = None
    ) -> list[Processor]:
        """Live processors with ``ut(p, t) < threshold``, in creation order.

        This is Figure 7's candidate sweep; like :meth:`least_utilized`
        it is served from the utilization index when possible and is
        bit-identical to :meth:`processors_below_scan`.
        """
        if self.utilization_index is None or window is not None:
            return self.processors_below_scan(threshold, window=window)
        return self.utilization_index.below(threshold)

    def processors_below_scan(
        self, threshold: float, window: float | None = None
    ) -> list[Processor]:
        """Reference O(P) implementation of :meth:`processors_below`."""
        return [
            p
            for p in self.processors
            if not p.failed and p.utilization(window=window) < threshold
        ]

    def mean_utilization(self) -> float:
        """Mean ``ut(p, t)`` over **all** processors (failed included).

        Float-identical to ``sum([p.utilization() for p in processors])
        / len(processors)``; when the index is active the readings are
        folded into it so the step's later queries hit warm entries.
        """
        if self.utilization_index is not None:
            values = self.utilization_index.exact_utilizations()
        else:
            values = [p.utilization() for p in self.processors]
        return sum(values) / len(values)

    def notify_placement_change(self, names: "set[str] | frozenset[str]") -> None:
        """Refresh index entries after replicas were placed/shut down.

        Placements don't change utilization at the decision instant, but
        re-reading the touched processors keeps their heap keys exact so
        the remaining queries of this RM step stay O(log P).
        """
        if self.utilization_index is not None and names:
            self.utilization_index.refresh(names)

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
    use_utilization_index: bool = True,
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
        use_utilization_index=use_utilization_index,
    )
