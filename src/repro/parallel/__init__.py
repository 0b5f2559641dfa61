"""Process-pool execution layer for experiment campaigns.

The science loop — profile, fit, sweep, replicate — is embarrassingly
parallel across experiment runs.  This package fans runs out over a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping results
**bit-identical to serial execution**:

* :mod:`repro.parallel.pool` — the generic order-preserving
  :func:`map_jobs` core (``n_jobs=1`` is the exact in-process path);
* :mod:`repro.parallel.jobs` — picklable :class:`JobSpec`/:class:`JobResult`
  descriptors and the :func:`run_job` worker entry point;
* :mod:`repro.parallel.dispatch` — :func:`run_configs_parallel`, the
  one fan-out path of sweeps, replications, figures and campaigns (the
  parent fits, every job carries the fitted estimator).

See DESIGN.md ("Parallel execution subsystem") for the seed-derivation
and shared-estimator rationale.
"""

from repro.parallel.dispatch import run_configs_parallel
from repro.parallel.jobs import JobResult, JobSpec, run_job
from repro.parallel.pool import JobFailure, effective_n_jobs, map_jobs

__all__ = [
    "JobFailure",
    "JobResult",
    "JobSpec",
    "effective_n_jobs",
    "map_jobs",
    "run_configs_parallel",
    "run_job",
]
