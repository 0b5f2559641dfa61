"""Parallel experiment execution: campaigns and serial/parallel parity.

The multi-worker determinism checks are marked ``slow`` (tier-1 skips
them via pyproject's ``addopts``; ``scripts/run_slow.sh`` runs all).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.replication import replicate_experiment
from repro.experiments.runner import sweep_workloads


@pytest.fixture(scope="module")
def small_baseline():
    return BaselineConfig(n_periods=8, seed=41)


@pytest.fixture(scope="module")
def small_spec(small_baseline):
    return CampaignSpec(
        policies=("predictive", "nonpredictive"),
        patterns=("triangular",),
        units=(5.0, 15.0),
        n_seeds=2,
        baseline=small_baseline,
        repetitions=1,
    )


class TestCampaignSpec:
    def test_grid_size_and_order(self, small_spec):
        assert small_spec.n_runs == 8
        cells = small_spec.enumerate()
        assert len(cells) == 8
        # Canonical order: policy, pattern, units, seed offset.
        assert [c[2] for c in cells[:4]] == [
            "predictive/triangular/u5/s0",
            "predictive/triangular/u5/s1",
            "predictive/triangular/u15/s0",
            "predictive/triangular/u15/s1",
        ]

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(policies=())
        with pytest.raises(ConfigurationError):
            CampaignSpec(n_seeds=0)


class TestRunCampaignSerial:
    @pytest.fixture(scope="class")
    def result(self, small_spec, tmp_path_factory):
        return run_campaign(
            small_spec, n_jobs=1, cache_dir=tmp_path_factory.mktemp("cache")
        )

    def test_rows_keep_enumeration_order(self, small_spec, result):
        assert len(result.rows) == small_spec.n_runs
        tags = [
            f"{r.policy}/{r.pattern}/u{r.max_workload_units:g}/s{r.seed_offset}"
            for r in result.rows
        ]
        assert tags == [c[2] for c in small_spec.enumerate()]

    def test_rows_carry_accounting(self, result):
        for row in result.rows:
            assert row.wall_clock_s > 0.0
            assert row.max_rss_kb > 0
            assert row.pid > 0

    def test_series_summarizes_over_seeds(self, result):
        series = result.series("predictive", "triangular", "combined")
        assert sorted(series) == [5.0, 15.0]
        assert all(s.n == 2 for s in series.values())
        with pytest.raises(ConfigurationError):
            result.series("alchemy", "triangular", "combined")

    def test_render_and_json(self, result, tmp_path):
        text = result.render()
        assert "predictive" in text and "campaign" in text
        target = result.write_json(tmp_path / "campaign.json")
        import json

        payload = json.loads(target.read_text())
        assert payload["n_runs"] == 8
        assert len(payload["rows"]) == 8
        assert payload["rows"][0]["metrics"]["combined"] >= 0.0

    def test_progress_reports_every_run(self, small_spec, tmp_path):
        lines = []
        run_campaign(
            small_spec, n_jobs=1, cache_dir=tmp_path, progress=lines.append
        )
        assert len(lines) == small_spec.n_runs
        assert all("combined=" in line for line in lines)


def test_parallel_sweep_carries_decision_digests(
    small_baseline, fitted_estimator, tmp_path
):
    kwargs = dict(
        policy="predictive",
        pattern="triangular",
        units=(5.0, 15.0),
        baseline=small_baseline,
        estimator=fitted_estimator,
        cache_dir=tmp_path,
    )
    serial = sweep_workloads(n_jobs=1, **kwargs)
    parallel = sweep_workloads(n_jobs=2, **kwargs)
    assert all(r.decision_digest for r in serial)
    assert [r.decision_digest for r in parallel] == [
        r.decision_digest for r in serial
    ]


@pytest.mark.slow
class TestParallelMatchesSerial:
    """Bit-identical results regardless of worker count (hard requirement)."""

    def test_replication_identical_n_jobs_4(self, small_baseline, tmp_path):
        config = ExperimentConfig(
            policy="predictive",
            pattern="triangular",
            max_workload_units=15.0,
            baseline=small_baseline,
        )
        kwargs = dict(n_seeds=4, cache_dir=tmp_path)
        serial = replicate_experiment(config, n_jobs=1, **kwargs)
        parallel = replicate_experiment(config, n_jobs=4, **kwargs)
        assert [m.as_dict() for m in serial.runs] == [
            m.as_dict() for m in parallel.runs
        ]
        assert serial.summaries == parallel.summaries

    def test_sweep_identical_n_jobs_2(self, small_baseline, tmp_path):
        kwargs = dict(
            policy="nonpredictive",
            pattern="increasing",
            units=(5.0, 10.0, 20.0),
            baseline=small_baseline,
            cache_dir=tmp_path,
        )
        serial = sweep_workloads(n_jobs=1, **kwargs)
        parallel = sweep_workloads(n_jobs=2, **kwargs)
        assert [r.metrics.as_dict() for r in serial] == [
            r.metrics.as_dict() for r in parallel
        ]
        assert [r.final_placement for r in serial] == [
            r.final_placement for r in parallel
        ]

    def test_campaign_identical_n_jobs_4(self, small_spec, tmp_path):
        serial = run_campaign(small_spec, n_jobs=1, cache_dir=tmp_path)
        parallel = run_campaign(small_spec, n_jobs=4, cache_dir=tmp_path)
        assert [r.metrics.as_dict() for r in serial.rows] == [
            r.metrics.as_dict() for r in parallel.rows
        ]
        # Work actually fanned out to distinct worker processes.
        assert len({r.pid for r in parallel.rows}) > 1
