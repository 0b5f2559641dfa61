"""Distributed hardware substrate.

Models the paper's testbed (Table 1): a set of homogeneous processors
with round-robin CPU scheduling, a shared 100 Mbit/s Ethernet segment,
and NTP-style synchronized clocks.

* :class:`~repro.cluster.processor.Processor` — CPU server with two
  disciplines: event-driven **processor sharing** (the limit of
  round-robin as the quantum shrinks; the default, O(changes) fast) and
  exact **quantum-level round-robin** (used to validate the PS
  approximation).
* :class:`~repro.cluster.network.Network` — shared FIFO medium with
  per-message transmission delay (paper eq. 6) and emergent queueing
  ("buffer") delay (paper eq. 5).
* :class:`~repro.cluster.background.BackgroundLoad` — open-loop job
  arrivals that hold a processor at a target utilization (used by the
  profiler to pin the ``u`` axis of the regression grid).
* :class:`~repro.cluster.clock.NodeClock` / ``ClockSyncService`` —
  bounded-offset clock model standing in for [Mills95] NTP.
* :class:`~repro.cluster.topology.System` — the assembled machine; its
  utilization views (``by_utilization``, ``least_utilized``,
  ``processors_below``, ``mean_utilization``) read each processor once
  per engine event, and the ``(ut, name)`` order is sorted once per event.
"""

from repro.cluster.background import BackgroundLoad
from repro.cluster.clock import ClockSyncService, NodeClock
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.cluster.metering import UtilizationMeter
from repro.cluster.network import Message, Network
from repro.cluster.processor import Discipline, Job, Processor
from repro.cluster.topology import System, build_system

__all__ = [
    "BackgroundLoad",
    "ClockSyncService",
    "Discipline",
    "FailureEvent",
    "FailureInjector",
    "Job",
    "Message",
    "Network",
    "NodeClock",
    "Processor",
    "System",
    "UtilizationMeter",
    "build_system",
]
