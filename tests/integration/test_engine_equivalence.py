"""Observed-vs-plain run equivalence, pinned at full-stack depth.

Every instrumentation site calls the engine's telemetry hub behind one
``enabled`` guard, and the engine times each ``run_until`` batch when
the hub is enabled.  Observation must never steer a run: with a
profiled telemetry hub streaming its trace to a sink, every run —
policy, chaos scenario, hardening aside — takes **bit-identical
decisions** to the plain run: same decision digest (the SHA-256 over the
canonical RM step sequence), same metrics, same final placement.  These
tests pin that across the policy × chaos × hardening grid, and pin the
other side of the guard too: plain runs leave the shared disabled hub
exactly as it was built.

Chaos cells use combinations that complete: an unhardened predictive
run under corrupted utilization readings raises ``RegressionError`` by
design, which is the hardening subsystem's concern.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.telemetry.hub import NULL_TELEMETRY, TelemetryHub
from repro.telemetry.sinks import MemorySink

BASELINE = BaselineConfig(n_periods=12, seed=5)

#: (chaos_scenario, hardened) cells that run to completion.
CELLS = [
    (None, False),
    (None, True),
    ("clock_drift", False),
    ("crashes", True),
    ("mayhem", True),
]


def _run(policy, scenario, hardened, estimator, telemetry=None):
    config = ExperimentConfig(
        policy=policy,
        pattern="triangular",
        max_workload_units=15.0,
        baseline=BASELINE,
        chaos_scenario=scenario,
        hardened=hardened,
    )
    return run_experiment(config, estimator=estimator, telemetry=telemetry)


@pytest.mark.parametrize("policy", ["predictive", "nonpredictive"])
@pytest.mark.parametrize("scenario,hardened", CELLS)
class TestDecisionSequenceEquivalence:
    def test_observed_run_matches_plain(
        self, policy, scenario, hardened, fitted_estimator
    ):
        plain = _run(policy, scenario, hardened, fitted_estimator)
        sink = MemorySink()
        hub = TelemetryHub(sink=sink)
        profiler = hub.arm_profiler()
        observed = _run(policy, scenario, hardened, fitted_estimator, telemetry=hub)
        # The observed path really ran: trace records streamed, batches
        # profiled.
        categories = {r["cat"] for r in sink.records if r["kind"] == "trace"}
        assert {"job", "message", "period"} <= categories
        engine_run = {s.name: s for s in profiler.stats()}["engine.run"]
        assert engine_run.calls > 0 and engine_run.events > 0
        assert observed.decision_digest == plain.decision_digest
        assert plain.decision_digest  # non-trivial: a real digest
        assert observed.metrics.as_dict() == plain.metrics.as_dict()
        assert observed.final_placement == plain.final_placement
        if plain.scorecard is not None:
            assert observed.scorecard.as_dict() == plain.scorecard.as_dict()


def test_shared_disabled_hub_stays_pristine(fitted_estimator):
    """Plain runs across the whole grid never write to ``NULL_TELEMETRY``.

    Every instrumentation site sits behind ``telemetry.enabled``; a site
    that slipped past the guard would leave a metric series, a span or a
    clock tick on the shared disabled hub.
    """
    for policy in ("predictive", "nonpredictive"):
        for scenario, hardened in CELLS:
            _run(policy, scenario, hardened, fitted_estimator)
    assert len(NULL_TELEMETRY.registry) == 0
    spans = NULL_TELEMETRY.spans
    assert spans.current is None
    assert spans.completed == [] and spans.pending == []
    assert NULL_TELEMETRY.now == 0.0
