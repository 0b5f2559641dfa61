"""Track-stream generation.

The paper's workload is a stream of radar *tracks* (sensor reports of
80 bytes, Table 1).  The simulator only needs per-period counts (the
patterns), but the examples that demonstrate the public API on
realistic scenarios also want the items themselves — positions,
velocities, identities — so this module synthesizes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.units import TRACK_BYTES
from repro.workloads.patterns import WorkloadPattern


@dataclass(frozen=True)
class Track:
    """One synthetic sensor report.

    Attributes
    ----------
    track_id:
        Stable identity across periods.
    x, y:
        Position in kilometres from the sensor origin.
    vx, vy:
        Velocity in km/s.
    threat:
        Threat score in [0, 1] (what EvalDecide would rank on).
    """

    track_id: int
    x: float
    y: float
    vx: float
    vy: float
    threat: float

    @property
    def size_bytes(self) -> int:
        """Wire size of a report (Table 1: 80 bytes)."""
        return TRACK_BYTES


class TrackStreamGenerator:
    """Generates per-period batches of tracks following a pattern.

    Track identities persist between periods: when the workload grows,
    new tracks appear; when it shrinks, the newest ones drop out —
    mirroring a surveillance picture gaining/losing contacts.
    """

    def __init__(self, pattern: WorkloadPattern, seed: int = 0) -> None:
        self.pattern = pattern
        # Config-seeded private stream, deterministic per (pattern,
        # seed) — identical in parent and worker processes.
        self._rng = np.random.default_rng(seed)
        self._states: dict[int, Track] = {}
        self._next_id = 1

    def _spawn(self) -> Track:
        rng = self._rng
        track = Track(
            track_id=self._next_id,
            x=float(rng.uniform(-200.0, 200.0)),
            y=float(rng.uniform(-200.0, 200.0)),
            vx=float(rng.uniform(-0.3, 0.3)),
            vy=float(rng.uniform(-0.3, 0.3)),
            threat=float(rng.uniform(0.0, 1.0)),
        )
        self._next_id += 1
        return track

    def _advance(self, track: Track, dt: float) -> Track:
        return Track(
            track_id=track.track_id,
            x=track.x + track.vx * dt,
            y=track.y + track.vy * dt,
            vx=track.vx,
            vy=track.vy,
            threat=min(1.0, max(0.0, track.threat + float(self._rng.normal(0, 0.02)))),
        )

    def batch(self, period_index: int, dt: float = 1.0) -> list[Track]:
        """The tracks observed in ``period_index``.

        The batch size follows the pattern (rounded); existing tracks are
        advanced by ``dt`` seconds and new ones spawned/retired to match.
        """
        if period_index < 0:
            raise ConfigurationError(f"negative period index {period_index}")
        count = int(round(self.pattern(period_index)))
        # Advance survivors.
        for track_id in list(self._states):
            self._states[track_id] = self._advance(self._states[track_id], dt)
        # Grow or shrink the picture.
        while len(self._states) < count:
            track = self._spawn()
            self._states[track.track_id] = track
        while len(self._states) > count:
            newest = max(self._states)
            del self._states[newest]
        return [self._states[k] for k in sorted(self._states)]

    def total_bytes(self, period_index: int) -> int:
        """Wire bytes of the period's batch."""
        return int(round(self.pattern(period_index))) * TRACK_BYTES
