"""Unit tests for message loss and retransmission."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.network import Network
from repro.errors import ClusterError
from repro.sim.engine import Engine
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.sinks import MemorySink


def make(loss=0.5, mode="shared", seed=0, timeout=0.050, max_retries=None):
    engine = Engine()
    return engine, Network(
        engine,
        bandwidth_bps=100e6,
        default_overhead_bytes=0.0,
        mode=mode,
        loss_probability=loss,
        retransmit_timeout=timeout,
        max_retries=max_retries,
        rng=np.random.default_rng(seed),
    )


class TestValidation:
    def test_bad_probability_rejected(self):
        engine = Engine()
        with pytest.raises(ClusterError):
            Network(engine, loss_probability=1.0, rng=np.random.default_rng(0))
        with pytest.raises(ClusterError):
            Network(engine, loss_probability=-0.1, rng=np.random.default_rng(0))

    def test_loss_requires_rng(self):
        engine = Engine()
        with pytest.raises(ClusterError):
            Network(engine, loss_probability=0.1)

    def test_bad_timeout_rejected(self):
        engine = Engine()
        with pytest.raises(ClusterError):
            Network(
                engine, loss_probability=0.1, retransmit_timeout=0.0,
                rng=np.random.default_rng(0),
            )


class TestRetransmission:
    @pytest.mark.parametrize("mode", ["shared", "switched"])
    def test_every_message_eventually_delivered(self, mode):
        engine, net = make(loss=0.4, mode=mode, seed=1)
        messages = [net.send_bytes(10_000.0) for _ in range(30)]
        engine.run()
        assert net.delivered_count == 30
        assert all(m.delivery_time is not None for m in messages)
        assert net.lost_count > 0  # at 40% loss, some retries happened

    def test_lost_message_delay_includes_timeout(self):
        engine, net = make(loss=0.99999, timeout=0.100)
        message = net.send_bytes(10_000.0)
        # Force exactly one loss then disable further losses.
        engine.run_until(0.010)
        net.loss_probability = 0.0
        engine.run()
        # 0.8 ms wire + 100 ms retransmit timeout + 0.8 ms retry.
        assert message.total_delay == pytest.approx(0.1016, abs=0.002)
        assert net.lost_count == 1

    def test_zero_loss_is_the_reliable_baseline(self):
        engine, net = make(loss=0.0)
        message = net.send_bytes(1_250_000)
        engine.run()
        assert net.lost_count == 0
        assert message.total_delay == pytest.approx(0.1)

    def test_loss_rate_statistics(self):
        engine, net = make(loss=0.25, seed=3)
        for _ in range(400):
            net.send_bytes(1_000.0)
        engine.run()
        # Attempts = delivered + lost; empirical rate near 25%.
        attempts = net.delivered_count + net.lost_count
        assert net.lost_count / attempts == pytest.approx(0.25, abs=0.06)

    def test_queue_continues_during_retransmit_wait(self):
        """A loss must not stall the medium: later messages proceed."""
        engine, net = make(loss=0.99999, timeout=0.500)
        first = net.send_bytes(10_000.0, label="first")
        engine.run_until(0.002)
        net.loss_probability = 0.0
        second = net.send_bytes(10_000.0, label="second")
        engine.run()
        assert second.delivery_time < first.delivery_time


class TestDroppedMessages:
    def test_retry_exhaustion_drops_message(self):
        engine, net = make(loss=0.99999, max_retries=2)
        message = net.send_bytes(10_000.0, label="m")
        engine.run()
        assert message.dropped
        assert message.loss_count == 3  # initial attempt + 2 retries
        assert message.delivery_time is None
        assert net.dropped_count == 1
        assert net.delivered_count == 0

    def test_dropped_and_lost_counters_are_distinct(self):
        engine, net = make(loss=0.5, seed=7, max_retries=0)
        messages = [net.send_bytes(1_000.0) for _ in range(100)]
        engine.run()
        # With zero retries every loss is a drop; nothing retries.
        assert net.dropped_count == net.lost_count > 0
        assert net.delivered_count + net.dropped_count == 100
        assert sum(m.dropped for m in messages) == net.dropped_count

    def test_unlimited_retries_never_drop(self):
        engine, net = make(loss=0.6, seed=2)
        for _ in range(50):
            net.send_bytes(1_000.0)
        engine.run()
        assert net.dropped_count == 0
        assert net.delivered_count == 50

    @pytest.mark.parametrize("mode", ["shared", "switched"])
    def test_drop_is_traced(self, mode):
        sink = MemorySink()
        engine = Engine(telemetry=TelemetryHub(sink=sink))
        net = Network(
            engine, bandwidth_bps=100e6, default_overhead_bytes=0.0,
            mode=mode, loss_probability=0.99999, max_retries=1,
            rng=np.random.default_rng(0),
        )
        net.send_bytes(10_000.0, label="probe")
        engine.run()
        labels = [r["label"] for r in sink.records if r["cat"] == "message"]
        assert "probe.dropped" in labels

    def test_negative_max_retries_rejected(self):
        engine = Engine()
        with pytest.raises(ClusterError):
            Network(
                engine, loss_probability=0.1, max_retries=-1,
                rng=np.random.default_rng(0),
            )


class TestSystemIntegration:
    def test_lossy_experiment_still_functions(self, fitted_estimator):
        from repro.experiments.config import BaselineConfig, ExperimentConfig
        from repro.experiments.runner import run_experiment

        config = ExperimentConfig(
            policy="predictive",
            pattern="triangular",
            max_workload_units=10.0,
            baseline=BaselineConfig(
                n_periods=15, noise_sigma=0.0, seed=4,
                message_loss_probability=0.05,
            ),
        )
        result = run_experiment(config, estimator=fitted_estimator)
        # 5% loss adds latency spikes; the RM absorbs them.
        assert result.metrics.missed_deadline_ratio <= 0.35
