"""Experiment-aware fan-out: fit once in the parent, then map jobs.

:func:`run_configs_parallel` is the one way to run many experiments —
``sweep_workloads``, ``replicate_experiment``, the figure sweeps and
:mod:`repro.experiments.campaign` all go through it, at every
``n_jobs``: it fits (or reuses) one estimator per distinct baseline in
the parent and hands each :class:`~repro.parallel.jobs.JobSpec` those
fitted models, so workers never fit.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.errors import ConfigurationError
from repro.experiments import estimator_cache
from repro.experiments.config import ExperimentConfig
from repro.parallel.jobs import JobResult, JobSpec, run_job
from repro.parallel.pool import JobFailure, OnResult, map_jobs
from repro.regression.estimator import TimingEstimator


def run_configs_parallel(
    configs: Sequence[ExperimentConfig],
    n_jobs: int,
    cache_dir: str | Path | None = None,
    estimator: TimingEstimator | None = None,
    seed_offsets: Sequence[int] | None = None,
    repetitions: int = 2,
    tags: Sequence[str] | None = None,
    on_result: OnResult | None = None,
    retries: int = 0,
) -> list[JobResult | JobFailure]:
    """Run every config (paired with its seed offset) across the pool.

    The parent calls :func:`~repro.experiments.estimator_cache.get_estimator`
    once per distinct baseline key (``cache_dir`` persists those fits
    across invocations); with ``estimator`` given, every job uses those
    exact models instead — an explicit estimator is shared across a
    whole sweep.  ``n_jobs=1`` runs in-process.  Results return in
    config order.

    ``retries > 0`` arms :func:`~repro.parallel.pool.map_jobs`'s
    crash-tolerant mode: died-worker jobs are resubmitted boundedly and
    unrecoverable slots return as
    :class:`~repro.parallel.pool.JobFailure` records.
    """
    configs = list(configs)
    if seed_offsets is None:
        seed_offsets = [0] * len(configs)
    if len(seed_offsets) != len(configs):
        raise ConfigurationError(
            f"{len(configs)} configs but {len(seed_offsets)} seed offsets"
        )
    if tags is not None and len(tags) != len(configs):
        raise ConfigurationError(f"{len(configs)} configs but {len(tags)} tags")
    fitted: dict[tuple, TimingEstimator] = {}
    specs = []
    for i, (config, offset) in enumerate(zip(configs, seed_offsets)):
        job_estimator = estimator
        if job_estimator is None:
            key = estimator_cache.cache_key(config.baseline, repetitions)
            if key not in fitted:
                fitted[key] = estimator_cache.get_estimator(
                    config.baseline, cache_dir=cache_dir, repetitions=repetitions
                )
            job_estimator = fitted[key]
        specs.append(
            JobSpec(
                config=config,
                seed_offset=int(offset),
                estimator=job_estimator,
                tag="" if tags is None else tags[i],
            )
        )
    return map_jobs(
        specs, n_jobs=n_jobs, worker=run_job, on_result=on_result, retries=retries
    )
