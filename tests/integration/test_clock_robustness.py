"""Integration tests: clock synchronization within the full system."""

from __future__ import annotations

from repro.cluster.topology import build_system


class TestClockSyncInSystem:
    def test_errors_stay_bounded_during_long_run(self):
        system = build_system(seed=7, clock_drift_ppm=50.0)
        system.engine.run_until(120.0)
        assert system.clock_sync is not None
        # Bound: residual (0.5 ms) + drift over one 16 s poll interval.
        assert system.clock_sync.max_error() <= 0.5e-3 + 16.0 * 50e-6 + 1e-9

    def test_local_timestamps_comparable_across_nodes(self):
        """Two nodes timestamping the same instant disagree by less than
        a period's worth of slack — the monitoring precondition."""
        system = build_system(seed=7)
        system.engine.run_until(30.0)
        now = system.engine.now
        readings = [clock.local_time(now) for clock in system.clocks]
        assert max(readings) - min(readings) < 0.01

    def test_without_sync_drift_accumulates(self):
        system = build_system(seed=7, clock_sync_enabled=False, clock_drift_ppm=50.0)
        system.engine.run_until(600.0)
        errors = [clock.error(system.engine.now) for clock in system.clocks]
        # With +-50 ppm drift over 600 s some clock exceeds 1 ms.
        assert max(errors) > 1e-3
