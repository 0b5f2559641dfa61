"""Tests for the generic process-pool core (:mod:`repro.parallel.pool`)."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.errors import ParallelExecutionError
from repro.parallel import JobSpec, effective_n_jobs, map_jobs


def _square(x: int) -> int:
    """Module-level so worker processes can unpickle it."""
    return x * x


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("boom")
    return x


def _pid_of(_x: int) -> int:
    return os.getpid()


class TestEffectiveNJobs:
    def test_positive_passthrough(self):
        assert effective_n_jobs(1) == 1
        assert effective_n_jobs(7) == 7

    def test_zero_means_all_cpus(self):
        assert effective_n_jobs(0) == (os.cpu_count() or 1)
        assert effective_n_jobs(-1) == (os.cpu_count() or 1)


class TestSerialPath:
    def test_results_in_order(self):
        assert map_jobs(range(6), n_jobs=1, worker=_square) == [0, 1, 4, 9, 16, 25]

    def test_empty(self):
        assert map_jobs([], n_jobs=1, worker=_square) == []
        assert map_jobs([], n_jobs=4, worker=_square) == []

    def test_runs_in_parent_process(self):
        assert map_jobs([0], n_jobs=1, worker=_pid_of) == [os.getpid()]

    def test_progress_callback_in_order(self):
        seen = []
        map_jobs(
            range(4),
            n_jobs=1,
            worker=_square,
            on_result=lambda i, total, r: seen.append((i, total, r)),
        )
        assert seen == [(0, 4, 0), (1, 4, 1), (2, 4, 4), (3, 4, 9)]

    def test_failure_wrapped_with_job_index(self):
        with pytest.raises(ParallelExecutionError, match="job 3/5"):
            map_jobs(range(5), n_jobs=1, worker=_fail_on_three)


class TestParallelPath:
    def test_results_in_submission_order(self):
        assert map_jobs(range(8), n_jobs=2, worker=_square) == [
            x * x for x in range(8)
        ]

    def test_runs_in_worker_processes(self):
        pids = map_jobs(range(4), n_jobs=2, worker=_pid_of)
        assert os.getpid() not in pids

    def test_failure_wrapped_with_job_index(self):
        with pytest.raises(ParallelExecutionError, match="job 3/5"):
            map_jobs(range(5), n_jobs=2, worker=_fail_on_three)

    def test_progress_sees_every_job(self):
        seen = []
        map_jobs(
            range(6),
            n_jobs=2,
            worker=_square,
            on_result=lambda i, total, r: seen.append((i, r)),
        )
        assert sorted(seen) == [(i, i * i) for i in range(6)]

    def test_bounded_in_flight_window(self):
        # A window smaller than the job count must still complete all jobs.
        assert map_jobs(
            range(10), n_jobs=2, worker=_square, max_in_flight=2
        ) == [x * x for x in range(10)]


class TestJobSpecPickling:
    def test_round_trip_carries_the_fitted_estimator(self, fitted_estimator):
        from repro.experiments.config import BaselineConfig, ExperimentConfig
        from repro.parallel import run_job

        spec = JobSpec(
            config=ExperimentConfig(
                policy="predictive",
                pattern="triangular",
                max_workload_units=10.0,
                baseline=BaselineConfig(n_periods=5),
            ),
            seed_offset=3,
            estimator=fitted_estimator,
            tag="predictive/triangular/u10/s3",
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.config == spec.config
        assert (clone.seed_offset, clone.tag) == (3, spec.tag)
        assert clone.estimator is not fitted_estimator
        assert clone.estimator == fitted_estimator
        # The unpickled models forecast exactly like the originals.
        assert (
            run_job(clone).result.decision_digest
            == run_job(spec).result.decision_digest
        )
