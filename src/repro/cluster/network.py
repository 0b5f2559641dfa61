"""Shared network medium.

Models the paper's single Ethernet segment (IEEE 802.3, 100 Mbit/s,
Table 1) as one FIFO server shared by all nodes:

* **transmission delay** — deterministic ``bits / bandwidth`` (paper
  eq. 6), plus a fixed per-message protocol/framing overhead in bytes,
  which is what makes replica fan-out cost network capacity (each of
  ``k`` replica messages carries ``1/k`` of the payload *plus* a full
  overhead) — the mechanism behind the paper's observation that the
  non-predictive algorithm drives network utilization up;
* **buffer delay** — emergent FIFO queueing while the medium is busy
  (paper eq. 5 approximates this as linear in the total periodic
  workload; :mod:`repro.regression.buffer_model` fits that line from
  measurements of this queue).

Byte counters and a :class:`~repro.cluster.metering.UtilizationMeter`
provide the "average network utilization" metric of §5.2.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.cluster.metering import UtilizationMeter
from repro.errors import ClusterError
from repro.sim.counters import IdCounter
from repro.sim.engine import Engine
from repro.units import ETHERNET_100_MBPS, transmission_time

_message_ids = IdCounter(1)


class Message:
    """One message on the shared medium.

    Attributes
    ----------
    payload_bytes:
        Application payload (track data).
    overhead_bytes:
        Fixed protocol/framing overhead added on the wire.
    source, destination:
        Node names (informational; the medium is shared so they do not
        affect timing, but traces and tests use them).
    enqueue_time / start_time / delivery_time:
        Timestamps populated as the message moves through the queue.
    """

    __slots__ = (
        "message_id",
        "payload_bytes",
        "overhead_bytes",
        "source",
        "destination",
        "label",
        "on_delivered",
        "enqueue_time",
        "start_time",
        "delivery_time",
        "loss_count",
        "dropped",
    )

    def __init__(
        self,
        payload_bytes: float,
        source: str = "",
        destination: str = "",
        overhead_bytes: float = 0.0,
        label: str = "",
        on_delivered: Callable[["Message", float], None] | None = None,
    ) -> None:
        if payload_bytes < 0.0:
            raise ClusterError(f"payload must be non-negative, got {payload_bytes}")
        if overhead_bytes < 0.0:
            raise ClusterError(f"overhead must be non-negative, got {overhead_bytes}")
        self.message_id = next(_message_ids)
        self.payload_bytes = float(payload_bytes)
        self.overhead_bytes = float(overhead_bytes)
        self.source = source
        self.destination = destination
        self.label = label
        self.on_delivered = on_delivered
        self.enqueue_time: float | None = None
        self.start_time: float | None = None
        self.delivery_time: float | None = None
        #: Transmissions of this message lost so far.
        self.loss_count = 0
        #: True once the network abandoned the message (retries exhausted).
        self.dropped = False

    @property
    def wire_bytes(self) -> float:
        """Total bytes clocked onto the medium."""
        return self.payload_bytes + self.overhead_bytes

    @property
    def buffer_delay(self) -> float:
        """Queueing time before transmission began (paper ``Dbuf``)."""
        if self.enqueue_time is None or self.start_time is None:
            raise ClusterError(f"message {self.message_id} not yet transmitted")
        return self.start_time - self.enqueue_time

    @property
    def total_delay(self) -> float:
        """End-to-end communication delay (paper ``ecd`` = Dbuf + Dtrans)."""
        if self.enqueue_time is None or self.delivery_time is None:
            raise ClusterError(f"message {self.message_id} not yet delivered")
        return self.delivery_time - self.enqueue_time


class Network:
    """A shared FIFO medium connecting all processors.

    Parameters
    ----------
    engine:
        The discrete-event engine.
    bandwidth_bps:
        Link speed in bits/second (Table 1 default: 100 Mbit/s).
    default_overhead_bytes:
        Per-message overhead applied when a message does not specify one.
        Default 1500 bytes — roughly one extra MTU of headers, preamble,
        inter-frame gaps and ACK traffic per logical message.
    utilization_window:
        Trailing window for :meth:`utilization`.
    mode:
        ``"shared"`` (default) — the paper's single Ethernet segment:
        one transmission at a time, FIFO queueing produces the eq. 5
        buffer delays.  ``"switched"`` — a modern full-duplex switch:
        every message transmits immediately and independently, so
        buffer delay is identically zero.  The switched mode exists for
        the substrate ablation showing how the eq. 5 model degenerates
        when the medium is not shared.
    loss_probability:
        Per-transmission loss probability.  A lost message is detected
        after ``retransmit_timeout`` and re-enqueued (go-back
        retransmission), so its end-to-end delay jumps — the
        "communication latencies without known upper bounds" of the
        paper's asynchronous model (§1), made concrete.  Requires
        ``rng`` when non-zero.
    retransmit_timeout:
        Seconds from the (lost) transmission's start until the sender
        retries.
    max_retries:
        Retransmissions allowed per message before the network gives up
        and **drops** it: the delivery callback never fires, the message
        is marked ``dropped``, and ``dropped_count`` plus the
        ``net.messages_dropped`` telemetry counter record the loss.
        ``None`` (default) retries forever — the original semantics,
        where a lossy link only ever *delays* messages.
    rng:
        Random generator deciding losses.
    """

    MODES = ("shared", "switched")

    def __init__(
        self,
        engine: Engine,
        bandwidth_bps: float = ETHERNET_100_MBPS,
        default_overhead_bytes: float = 1500.0,
        utilization_window: float = 5.0,
        mode: str = "shared",
        loss_probability: float = 0.0,
        retransmit_timeout: float = 0.050,
        max_retries: int | None = None,
        rng=None,
    ) -> None:
        if bandwidth_bps <= 0.0:
            raise ClusterError(f"bandwidth must be positive, got {bandwidth_bps}")
        if mode not in self.MODES:
            raise ClusterError(f"unknown network mode {mode!r}; choose {self.MODES}")
        if not 0.0 <= loss_probability < 1.0:
            raise ClusterError(
                f"loss probability must be in [0, 1), got {loss_probability}"
            )
        if retransmit_timeout <= 0.0:
            raise ClusterError(
                f"retransmit timeout must be positive, got {retransmit_timeout}"
            )
        if loss_probability > 0.0 and rng is None:
            raise ClusterError("loss_probability > 0 requires an rng")
        if max_retries is not None and max_retries < 0:
            raise ClusterError(
                f"max_retries must be >= 0 or None, got {max_retries}"
            )
        self.loss_probability = float(loss_probability)
        self.retransmit_timeout = float(retransmit_timeout)
        self.max_retries = max_retries
        self.rng = rng
        self.lost_count = 0
        self.dropped_count = 0
        self.engine = engine
        self.bandwidth_bps = float(bandwidth_bps)
        self.default_overhead_bytes = float(default_overhead_bytes)
        self.utilization_window = float(utilization_window)
        self.mode = mode
        self.meter = UtilizationMeter(max_window=max(utilization_window, 30.0))
        self._queue: deque[Message] = deque()
        self._transmitting: Message | None = None
        self._in_flight = 0  # switched mode: concurrent transmissions
        self.delivered_count = 0
        self.delivered_bytes = 0.0
        #: Per-label delivered (count, bytes) — e.g. one entry per
        #: message stage ("aaw.m2"), for traffic breakdowns.
        self.delivered_by_label: dict[str, tuple[int, float]] = {}

    # -- sending ---------------------------------------------------------------

    def send(self, message: Message) -> Message:
        """Enqueue (shared) or immediately transmit (switched) a message."""
        if message.overhead_bytes == 0.0:
            message.overhead_bytes = self.default_overhead_bytes
        message.enqueue_time = self.engine.now
        if self.mode == "switched":
            message.start_time = self.engine.now
            if self._in_flight == 0:
                self.meter.set_busy(self.engine.now, True)
            self._in_flight += 1
            self.engine.schedule(
                self.transmission_delay(message.wire_bytes),
                self._deliver_switched,
                message,
                label="net.deliver",
            )
            return message
        self._queue.append(message)
        if self._transmitting is None:
            self.meter.set_busy(self.engine.now, True)
            self._start_next()
        return message

    def send_bytes(
        self,
        payload_bytes: float,
        source: str = "",
        destination: str = "",
        label: str = "",
        on_delivered: Callable[[Message, float], None] | None = None,
    ) -> Message:
        """Convenience wrapper building and sending a :class:`Message`."""
        return self.send(
            Message(
                payload_bytes,
                source=source,
                destination=destination,
                label=label,
                on_delivered=on_delivered,
            )
        )

    def transmission_delay(self, wire_bytes: float) -> float:
        """Deterministic service time for ``wire_bytes`` (paper eq. 6)."""
        return transmission_time(wire_bytes, self.bandwidth_bps)

    # -- internals ---------------------------------------------------------------

    def _start_next(self) -> None:
        if not self._queue:
            self._transmitting = None
            self.meter.set_busy(self.engine.now, False)
            return
        message = self._queue.popleft()
        self._transmitting = message
        message.start_time = self.engine.now
        self.engine.schedule(
            self.transmission_delay(message.wire_bytes),
            self._deliver,
            message,
            label="net.deliver",
        )

    def _account(self, message: Message) -> None:
        self.delivered_count += 1
        self.delivered_bytes += message.wire_bytes
        telemetry = self.engine.telemetry
        if telemetry.enabled:
            telemetry.on_message_delivered(self.engine.now, message)
        if message.label:
            count, total = self.delivered_by_label.get(message.label, (0, 0.0))
            self.delivered_by_label[message.label] = (
                count + 1,
                total + message.wire_bytes,
            )

    def _maybe_lost(self, message: Message) -> bool:
        """Decide whether this transmission was lost; arrange the retry."""
        if self.loss_probability == 0.0:
            return False
        if self.rng.random() >= self.loss_probability:
            return False
        self.lost_count += 1
        message.loss_count += 1
        telemetry = self.engine.telemetry
        if telemetry.enabled:
            telemetry.on_message_lost(self.engine.now, message)
        if (
            self.max_retries is not None
            and message.loss_count > self.max_retries
        ):
            # Retries exhausted: abandon the message.  The silent-drop
            # failure mode is no longer silent — counters and telemetry
            # record it, and the sender's callback simply never fires
            # (exactly what a crashed receiver looks like).
            message.dropped = True
            self.dropped_count += 1
            if telemetry.enabled:
                telemetry.on_message_dropped(self.engine.now, message)
            return True
        self.engine.schedule(
            self.retransmit_timeout, self._resend, message, label="net.retransmit"
        )
        return True

    def _resend(self, message: Message) -> None:
        """Retransmit a lost message (enqueue time is preserved, so the
        observed communication delay includes the loss + timeout)."""
        message.start_time = None
        message.delivery_time = None
        if self.mode == "switched":
            message.start_time = self.engine.now
            if self._in_flight == 0:
                self.meter.set_busy(self.engine.now, True)
            self._in_flight += 1
            self.engine.schedule(
                self.transmission_delay(message.wire_bytes),
                self._deliver_switched,
                message,
                label="net.deliver",
            )
            return
        self._queue.append(message)
        if self._transmitting is None:
            self.meter.set_busy(self.engine.now, True)
            self._start_next()

    def _deliver_switched(self, message: Message) -> None:
        self._in_flight -= 1
        if self._in_flight == 0:
            self.meter.set_busy(self.engine.now, False)
        if self._maybe_lost(message):
            return
        message.delivery_time = self.engine.now
        self._account(message)
        if message.on_delivered is not None:
            message.on_delivered(message, self.engine.now)

    def _deliver(self, message: Message) -> None:
        self._transmitting = None
        if self._maybe_lost(message):
            self._start_next()
            return
        message.delivery_time = self.engine.now
        self._account(message)
        callback = message.on_delivered
        self._start_next()
        if callback is not None:
            callback(message, self.engine.now)

    # -- queries ---------------------------------------------------------------

    @property
    def queue_length(self) -> int:
        """Messages waiting (excluding the one in transmission)."""
        return len(self._queue)

    def utilization(self, now: float | None = None, window: float | None = None) -> float:
        """Busy fraction of the medium over the trailing window."""
        t = self.engine.now if now is None else now
        w = self.utilization_window if window is None else window
        return self.meter.utilization(t, w)
