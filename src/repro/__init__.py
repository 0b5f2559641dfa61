"""repro — predictive adaptive resource management for periodic tasks.

A production-quality reproduction of:

    Binoy Ravindran and Tamir Hegazy, "A Predictive Algorithm for
    Adaptive Resource Management of Periodic Tasks in Asynchronous
    Real-Time Distributed Systems", IPPS/SPDP Workshops 2001.

Layering (bottom-up):

* :mod:`repro.sim` — discrete-event simulation engine
* :mod:`repro.cluster` — processors (RR/PS), shared Ethernet, clocks
* :mod:`repro.tasks` — the periodic subtask/message chain model
* :mod:`repro.bench` — the DynBench/AAW-like synthetic benchmark and
  the profiling campaigns
* :mod:`repro.regression` — the paper's eq. 3-6 regression models
* :mod:`repro.runtime` — periodic task execution with replication
* :mod:`repro.core` — **the contribution**: EQF deadline assignment,
  run-time monitoring, the predictive (Fig. 5) and non-predictive
  (Fig. 7) allocation algorithms, replica shutdown (Fig. 6), and the
  adaptive resource manager
* :mod:`repro.workloads` — Figure 8 workload patterns
* :mod:`repro.experiments` — the §5 evaluation harness (metrics,
  sweeps, figure/table reproduction)
* :mod:`repro.telemetry` — observability: metrics registry, RM
  decision spans, streaming JSONL traces, Chrome trace export
* :mod:`repro.api` — **the stable public surface**: every supported
  name, flat, with :func:`repro.api.fit_estimator` as the single
  estimator entry point

Quickstart
----------
.. code-block:: python

    from repro.api import (
        BaselineConfig, ExperimentConfig, fit_estimator, run_experiment,
    )

    baseline = BaselineConfig()
    estimator = fit_estimator(baseline)   # profile + fit once, cached
    result = run_experiment(
        ExperimentConfig(
            policy="predictive", pattern="triangular",
            max_workload_units=20.0, baseline=baseline,
        ),
        estimator=estimator,
    )
    print(result.metrics.combined)
"""

from repro.api import *  # noqa: F403
from repro.api import __all__ as _api_all

__version__ = "2.0.0"

__all__ = [*_api_all, "__version__"]
