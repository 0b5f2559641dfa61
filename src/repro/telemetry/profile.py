"""Deterministic, enabled-guarded run profiler for instrumented regions.

The simulator's hot paths are instrumented with named *regions* —
``engine.run`` (event dispatch), ``rm.step`` / ``rm.monitor`` /
``rm.placement`` (the RM decision cycle), ``rm.forecast`` (the Figure 5/6 kernels at their core
call sites), and the network/monitor feeds.  When a
:class:`RunProfiler` is attached to the telemetry hub, each region
accumulates three things:

* ``calls`` — how many times the region was entered,
* ``events`` — a deterministic work counter (engine events executed,
  subtasks placed, forecasts computed, …), and
* wall-time (total and *self*, i.e. minus enclosed child regions).

Calls and events are pure functions of the seed, so
:meth:`RunProfiler.summary` with ``deterministic=True`` is
byte-reproducible and safe to embed in digest-tested reports; wall
times come from the host clock and are only included when explicitly
requested.  :meth:`RunProfiler.to_chrome_trace` exports the recorded
slices as a Perfetto-compatible flame track that loads next to the
simulation trace in ``ui.perfetto.dev``.

The profiler follows the hub's cost model: components check a cheap
``profiler is not None`` / truthiness guard before calling in, and a
disabled run executes exactly the same instruction stream as before —
the profiler-on/off digest tests pin that.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Process/thread ids for the exported flame track (kept clear of the
#: simulation trace's pids 1-4 in :mod:`repro.telemetry.chrome`).
PROFILE_PID = 9
#: Slices kept for the flame export; counters are never dropped.
MAX_SLICES = 65_536
#: Seconds → microseconds (trace-event timestamps are in µs).
_US = 1e6


@dataclass
class RegionStat:
    """Accumulated totals for one instrumented region."""

    name: str
    calls: int = 0
    events: int = 0
    wall_s: float = 0.0
    self_wall_s: float = 0.0

    def as_dict(self, deterministic: bool = False) -> dict[str, Any]:
        """JSON-friendly totals; wall times omitted when deterministic."""
        out: dict[str, Any] = {
            "name": self.name,
            "calls": self.calls,
            "events": self.events,
        }
        if not deterministic:
            out["wall_s"] = self.wall_s
            out["self_wall_s"] = self.self_wall_s
        return out


class RunProfiler:
    """Attributes wall-time and event counts to named regions.

    Usage from an instrumented component::

        profiler = telemetry.profiler
        if profiler is not None:
            handle = profiler.begin("engine.run")
        ...  # hot work
        if profiler is not None:
            profiler.end(handle, events=executed)

    ``begin``/``end`` pairs may nest; self-time attributes each
    region's wall-clock minus its enclosed children, so the summary's
    ``self_wall_s`` column sums to (roughly) the run's instrumented
    wall time without double counting.
    """

    __slots__ = ("_stats", "_stack", "_slices", "_origin", "enabled")

    def __init__(self) -> None:
        self.enabled = True
        self._stats: dict[str, RegionStat] = {}
        # (name, start_wall, child_wall_accumulator)
        self._stack: list[list[Any]] = []
        # (name, start_us, dur_us, depth) for the flame export
        self._slices: list[tuple[str, float, float, int]] = []
        self._origin = time.perf_counter()

    # -- region API ---------------------------------------------------------

    def begin(self, name: str) -> int:
        """Enter a region; returns a handle for :meth:`end`."""
        self._stack.append([name, time.perf_counter(), 0.0])
        return len(self._stack) - 1

    def end(self, handle: int, events: int = 0) -> float:
        """Leave the region opened by ``handle``, adding ``events`` work.

        Returns the region's wall-clock seconds (0.0 for a stale
        handle).  Unbalanced inner frames (e.g. abandoned by an
        exception between ``begin`` and ``end``) are discarded so one
        crashing region cannot corrupt attribution for the rest of the
        run.
        """
        if handle >= len(self._stack):
            return 0.0
        del self._stack[handle + 1 :]
        name, start, child_wall = self._stack.pop()
        now = time.perf_counter()
        wall = now - start
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = RegionStat(name)
        stat.calls += 1
        stat.events += events
        stat.wall_s += wall
        stat.self_wall_s += wall - child_wall
        if self._stack:
            self._stack[-1][2] += wall
        if len(self._slices) < MAX_SLICES:
            self._slices.append(
                (name, (start - self._origin) * _US, wall * _US, len(self._stack))
            )
        return wall

    def count(self, name: str, events: int = 1) -> None:
        """Add work to a region without timing it (pure counter feed)."""
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = RegionStat(name)
        stat.events += events

    def counter(self, name: str) -> RegionStat:
        """A pre-resolved :meth:`count` handle for per-event hot paths.

        Callers bump ``.events`` on the returned stat directly, skipping
        the name lookup each time.
        """
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = RegionStat(name)
        return stat

    # -- export -------------------------------------------------------------

    def stats(self) -> tuple[RegionStat, ...]:
        """Per-region totals, sorted by name for stable output."""
        return tuple(self._stats[name] for name in sorted(self._stats))

    def summary(self, deterministic: bool = False) -> dict[str, Any]:
        """JSON summary; with ``deterministic=True`` only calls/events
        (byte-reproducible for a fixed seed) are included."""
        return {
            "regions": [s.as_dict(deterministic) for s in self.stats()],
            "deterministic": deterministic,
        }

    def render(self) -> str:
        """An aligned text table of the per-region breakdown."""
        from repro.formatting import format_table
        from repro.units import s_to_ms

        total_self = sum(s.self_wall_s for s in self._stats.values()) or 1.0
        rows = [
            [
                s.name,
                s.calls,
                s.events,
                f"{s_to_ms(s.wall_s):.3f}",
                f"{s_to_ms(s.self_wall_s):.3f}",
                f"{100.0 * s.self_wall_s / total_self:.1f}%",
            ]
            for s in self.stats()
        ]
        return format_table(
            ["region", "calls", "events", "wall ms", "self ms", "self %"],
            rows,
            title="profile: wall-time attribution by region",
        )

    def to_chrome_trace(self) -> dict[str, Any]:
        """Perfetto-compatible flame track of the recorded slices."""
        events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": PROFILE_PID,
                "tid": 0,
                "args": {"name": "repro profiler"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": PROFILE_PID,
                "tid": 1,
                "args": {"name": "regions"},
            },
        ]
        for name, start_us, dur_us, _depth in self._slices:
            events.append(
                {
                    "name": name,
                    "cat": "profile",
                    "ph": "X",
                    "ts": start_us,
                    "dur": dur_us,
                    "pid": PROFILE_PID,
                    "tid": 1,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Write the flame track JSON to ``path`` and return it."""
        path = Path(path)
        path.write_text(
            json.dumps(self.to_chrome_trace(), separators=(",", ":")),
            encoding="utf-8",
        )
        return path
