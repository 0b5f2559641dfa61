"""The SLO regression gate, end to end.

Three contracts from the observability control plane:

* **gate** — under the ``estimator_bias`` chaos scenario the unhardened
  predictive run blows its forecast-calibration budget (and fires a
  burn-rate alert), while the hardened run with the *same seed* passes:
  the circuit breaker's fallback restores calibration.  This is the
  pass/fail pair CI leans on, so it is pinned here at library level.
* **bit-identity** — arming the SLO engine is observation only: the
  decision digest and metrics of an armed run equal the unarmed run's.
* **rollup identity** — a pooled (``n_jobs=2``) campaign rolls up
  byte-identically to the same campaign run serially; completion order
  cannot leak into bytes.
"""

from __future__ import annotations

from repro.experiments.campaign import CampaignSpec, rollup_campaign, run_campaign
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.telemetry.slo import SloRule

#: The gate watches forecast calibration only: chaos scenarios are
#: allowed to degrade miss rates in *both* arms; what hardening must
#: restore is the estimator's honesty.
GATE_RULES = (
    SloRule(
        name="forecast-calibration",
        signal="forecast_calibration_error",
        objective=0.25,
        tolerance=0.5,
        windows=(10.0, 30.0),
    ),
)


def _biased_run(hardened: bool) -> "object":
    # Default n_periods (60): the breaker needs time to trip and refill
    # the calibration window with fallback forecasts.
    config = ExperimentConfig(
        policy="predictive",
        pattern="triangular",
        max_workload_units=30.0,
        baseline=BaselineConfig(seed=0),
        chaos_scenario="estimator_bias",
        hardened=hardened,
        slo=GATE_RULES,
    )
    return run_experiment(config)


class TestRegressionGate:
    def test_unhardened_biased_run_breaches_and_alerts(self):
        report = _biased_run(hardened=False).slo
        assert report is not None
        assert not report.passed
        assert report.exit_code == 1
        [verdict] = report.verdicts
        assert verdict.rule.name == "forecast-calibration"
        assert verdict.observed > 0.25
        assert verdict.alerts_fired >= 1
        assert any(a.state == "firing" for a in report.alerts)

    def test_hardened_same_seed_passes(self):
        report = _biased_run(hardened=True).slo
        assert report is not None
        assert report.passed
        assert report.exit_code == 0
        [verdict] = report.verdicts
        assert verdict.observed <= 0.25


class TestObservationIsFree:
    def test_armed_run_keeps_decision_digest_and_metrics(self):
        base = dict(
            policy="predictive",
            pattern="triangular",
            max_workload_units=20.0,
            baseline=BaselineConfig(n_periods=20, seed=3),
        )
        plain = run_experiment(ExperimentConfig(**base))
        armed = run_experiment(ExperimentConfig(**base, slo=GATE_RULES))
        assert armed.decision_digest == plain.decision_digest
        assert armed.metrics.as_dict() == plain.metrics.as_dict()
        assert plain.slo is None and armed.slo is not None


class TestPooledRollupIdentity:
    def test_pooled_and_serial_rollups_are_byte_identical(self):
        spec = CampaignSpec(
            policies=("predictive", "nonpredictive"),
            units=(10.0, 20.0),
            baseline=BaselineConfig(n_periods=10, seed=1),
            repetitions=1,
            slo=GATE_RULES,
        )
        serial = rollup_campaign(run_campaign(spec, n_jobs=1))
        pooled = rollup_campaign(run_campaign(spec, n_jobs=2))
        assert pooled.to_json() == serial.to_json()
        assert len(serial) == spec.n_runs
