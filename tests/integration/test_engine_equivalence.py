"""Observed-vs-plain run-loop equivalence, pinned at full-stack depth.

The engine's hot loop has two branches: the default one skips the
tracer hook and the profiler, the observed one records every event and
times each ``run_until`` batch.  Observation must never steer a run:
with a recording tracer and a profiled telemetry hub attached, every
run — policy, chaos scenario, hardening aside — takes **bit-identical
decisions** to the plain run: same decision digest (the SHA-256 over the
canonical RM step sequence), same metrics, same final placement.  These
tests pin that across the policy × chaos × hardening grid.

Chaos cells use combinations that complete: an unhardened predictive
run under corrupted utilization readings raises ``RegressionError`` by
design, which is the hardening subsystem's concern.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.trace import Tracer
from repro.telemetry.hub import TelemetryHub

BASELINE = BaselineConfig(n_periods=12, seed=5)

#: (chaos_scenario, hardened) cells that run to completion.
CELLS = [
    (None, False),
    (None, True),
    ("clock_drift", False),
    ("crashes", True),
    ("mayhem", True),
]


def _run(policy, scenario, hardened, estimator, tracer=None, telemetry=None):
    config = ExperimentConfig(
        policy=policy,
        pattern="triangular",
        max_workload_units=15.0,
        baseline=BASELINE,
        chaos_scenario=scenario,
        hardened=hardened,
    )
    return run_experiment(
        config, estimator=estimator, tracer=tracer, telemetry=telemetry
    )


@pytest.mark.parametrize("policy", ["predictive", "nonpredictive"])
@pytest.mark.parametrize("scenario,hardened", CELLS)
class TestDecisionSequenceEquivalence:
    def test_observed_run_matches_plain(
        self, policy, scenario, hardened, fitted_estimator
    ):
        plain = _run(policy, scenario, hardened, fitted_estimator)
        tracer = Tracer(categories=("event",))
        hub = TelemetryHub()
        profiler = hub.arm_profiler()
        observed = _run(
            policy, scenario, hardened, fitted_estimator,
            tracer=tracer, telemetry=hub,
        )
        # The observed branch really ran: events traced, batches profiled.
        assert len(tracer) > 0
        engine_run = {s.name: s for s in profiler.stats()}["engine.run"]
        assert engine_run.calls > 0 and engine_run.events > 0
        assert observed.decision_digest == plain.decision_digest
        assert plain.decision_digest  # non-trivial: a real digest
        assert observed.metrics.as_dict() == plain.metrics.as_dict()
        assert observed.final_placement == plain.final_placement
        if plain.scorecard is not None:
            assert observed.scorecard.as_dict() == plain.scorecard.as_dict()
