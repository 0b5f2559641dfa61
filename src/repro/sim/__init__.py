"""Discrete-event simulation substrate.

A small, dependency-free DES core: a binary-heap event calendar
(:class:`~repro.sim.engine.Engine`), cancellable events
(:class:`~repro.sim.events.Event`) and reproducible per-subsystem random
streams (:class:`~repro.sim.rng.RngRegistry`).  Instrumentation goes
through the engine's :class:`~repro.telemetry.hub.TelemetryHub`.

Every higher layer (processors, network, task executor, resource manager)
is written against this engine, so a whole experiment is a single
deterministic event-driven program.
"""

from repro.sim.engine import Engine
from repro.sim.events import Event, EventState
from repro.sim.rng import RngRegistry

__all__ = [
    "Engine",
    "Event",
    "EventState",
    "RngRegistry",
]
