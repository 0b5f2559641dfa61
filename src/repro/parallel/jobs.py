"""Picklable job descriptors and the worker entry point.

A :class:`JobSpec` names one experiment run — an
:class:`~repro.experiments.config.ExperimentConfig`, a seed offset, and
the fitted estimator the run forecasts with.  :func:`run_job` is the
module-level function executed inside worker processes; it must stay
importable (no closures) so every start method (fork, spawn,
forkserver) can reach it.

Seed-derivation scheme
----------------------
A job's RNG state is fully determined by ``config.baseline.seed +
seed_offset``: the parent derives one offset per job (replication seed
``k`` maps to offset ``k``) *before* dispatch, so the random streams a
job consumes are independent of which worker runs it, in what order.
Workers never fit regression models — the parent fits once and every
job carries the fitted models (pickle round-trips floats exactly),
matching the paper's methodology of one profiled model reused across
every run of a study.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.experiments.config import ExperimentConfig
from repro.regression.estimator import TimingEstimator

if TYPE_CHECKING:  # imported lazily at runtime: the runner imports us
    from repro.experiments.runner import ExperimentResult


@dataclass(frozen=True)
class JobSpec:
    """One experiment run, picklable for dispatch to a worker process.

    Attributes
    ----------
    config:
        The full experiment descriptor.
    seed_offset:
        Added to ``config.baseline.seed`` (replication index).
    estimator:
        The fitted models the run forecasts with (``None`` lets the run
        fit or reuse its own; only sensible for one-off jobs).
    tag:
        Free-form label carried through to the result (campaign rows).
    """

    config: ExperimentConfig
    seed_offset: int = 0
    estimator: TimingEstimator | None = None
    tag: str = ""


@dataclass(frozen=True)
class JobResult:
    """A finished job: the run's result plus per-job execution accounting."""

    spec: JobSpec
    result: "ExperimentResult"
    wall_clock_s: float
    max_rss_kb: int
    pid: int


def _max_rss_kb() -> int:
    """Peak RSS of this process in KiB (``ru_maxrss`` is bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def run_job(spec: JobSpec) -> JobResult:
    """Execute one :class:`JobSpec` (worker-process entry point)."""
    from repro.experiments.runner import run_experiment

    # Host-side accounting, not simulated time: the JobResult reports how
    # long the worker ran on the wall clock.
    start = time.perf_counter()  # repro: noqa DET-TIME
    result = run_experiment(
        spec.config, estimator=spec.estimator, seed_offset=spec.seed_offset
    )
    return JobResult(
        spec=spec,
        result=result,
        wall_clock_s=time.perf_counter() - start,  # repro: noqa DET-TIME
        max_rss_kb=_max_rss_kb(),
        pid=os.getpid(),
    )
