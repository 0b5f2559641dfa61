"""Tests for replicated-experiment statistics."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.replication import (
    _t_critical,
    replicate_experiment,
    summarize,
)

CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
DEGREES_OF_FREEDOM = (*range(1, 301), 500, 1000, 5000)


class TestStudentT:
    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for df in DEGREES_OF_FREEDOM:
            for confidence in CONFIDENCES:
                expected = stats.t.ppf(0.5 + confidence / 2.0, df)
                assert _t_critical(confidence, df) == pytest.approx(
                    expected, rel=1e-10
                ), (confidence, df)

    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_cauchy_closed_form_at_one_degree_of_freedom(self, confidence):
        # df=1 is the Cauchy distribution: F^-1(p) = tan(pi * (p - 1/2)).
        p = 0.5 + confidence / 2.0
        assert _t_critical(confidence, 1) == pytest.approx(
            math.tan(math.pi * (p - 0.5)), rel=1e-12
        )

    def test_import_repro_loads_no_scipy(self):
        import repro

        src = str(Path(repro.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        probe = (
            "import sys, repro\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        ).stdout
        assert out.strip() == "[]"


class TestSummarize:
    def test_single_value(self):
        s = summarize("m", [0.5])
        assert s.mean == 0.5
        assert s.std == 0.0
        assert s.ci_low == s.ci_high == 0.5

    def test_known_sample(self):
        s = summarize("m", [1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)
        # t(0.975, df=2) = 4.3027; half-width = 4.3027 / sqrt(3).
        assert s.ci_half_width == pytest.approx(4.3027 / (3 ** 0.5), rel=1e-3)

    def test_interval_contains_mean(self):
        s = summarize("m", [0.2, 0.3, 0.25, 0.22])
        assert s.ci_low <= s.mean <= s.ci_high

    def test_wider_confidence_wider_interval(self):
        values = [0.2, 0.3, 0.25, 0.22]
        narrow = summarize("m", values, confidence=0.8)
        wide = summarize("m", values, confidence=0.99)
        assert wide.ci_half_width > narrow.ci_half_width

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize("m", [])


class TestReplicateExperiment:
    @pytest.fixture(scope="class")
    def replicated(self, fitted_estimator):
        config = ExperimentConfig(
            policy="predictive",
            pattern="triangular",
            max_workload_units=10.0,
            baseline=BaselineConfig(n_periods=10, seed=6),
        )
        return replicate_experiment(config, n_seeds=4, estimator=fitted_estimator)

    def test_runs_all_seeds(self, replicated):
        assert len(replicated.runs) == 4

    def test_all_metrics_summarized(self, replicated):
        assert {"missed", "cpu", "net", "replicas", "combined"} <= set(
            replicated.summaries
        )
        for s in replicated.summaries.values():
            assert s.n == 4

    def test_seeds_produce_variation(self, replicated):
        """Execution noise differs across seeds, so some metric varies."""
        assert any(s.std > 0.0 for s in replicated.summaries.values())

    def test_summary_lookup(self, replicated):
        assert replicated.summary("combined").name == "combined"
        with pytest.raises(ConfigurationError):
            replicated.summary("nope")

    def test_bad_parameters_rejected(self, fitted_estimator):
        config = ExperimentConfig(
            policy="predictive",
            pattern="triangular",
            max_workload_units=5.0,
            baseline=BaselineConfig(n_periods=5),
        )
        with pytest.raises(ConfigurationError):
            replicate_experiment(config, n_seeds=0, estimator=fitted_estimator)
        with pytest.raises(ConfigurationError):
            replicate_experiment(
                config, n_seeds=2, confidence=1.5, estimator=fitted_estimator
            )
