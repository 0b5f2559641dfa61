"""DynBench-like benchmark application substrate.

The paper profiles a real-time benchmark derived from the U.S. Navy's
Anti-Air Warfare (AAW) system ([SWR99] DynBench): a sensing/assessment
pipeline whose dominant cost drivers are the number of radar *tracks*
processed per period.  We cannot run the original benchmark, so this
package provides a synthetic equivalent (documented in DESIGN.md §2):

* :mod:`repro.bench.ground_truth` — per-subtask CPU *service demand*
  models, quadratic in data size with multiplicative noise.  These are
  the "real application" the profiler measures; the resource manager
  never reads them directly.
* :mod:`repro.bench.app` — the Table 1 task: a 5-subtask chain
  (SensorIn, Preprocess, **Filter**, Correlate, **EvalDecide**) with the
  two bold subtasks replicable, matching the paper (Table 2 reports
  regression coefficients for subtasks 3 and 5).
* :mod:`repro.bench.datasets` — the published Table 2 / Table 3
  coefficients, shipped verbatim for comparison and exact-paper runs.
* :mod:`repro.bench.profiler` — the measurement campaigns of §4.2.1
  (latency vs (d, u) grid; buffer delay vs periodic load) and the
  ``build_estimator`` convenience entry point.
"""

from repro.bench.app import aaw_task, default_initial_placement
from repro.bench.datasets import (
    PAPER_BUFFER_K,
    PAPER_TABLE2_COEFFICIENTS,
    paper_comm_model,
    paper_latency_model,
)
from repro.bench.ground_truth import LinearServiceModel, QuadraticServiceModel
from repro.bench.profiler import (
    BufferProfileResult,
    LatencyProfileResult,
    ProfileSample,
    profile_buffer_delay,
    profile_subtask,
)

__all__ = [
    "BufferProfileResult",
    "LatencyProfileResult",
    "LinearServiceModel",
    "PAPER_BUFFER_K",
    "PAPER_TABLE2_COEFFICIENTS",
    "ProfileSample",
    "QuadraticServiceModel",
    "aaw_task",
    "default_initial_placement",
    "paper_comm_model",
    "paper_latency_model",
    "profile_buffer_delay",
    "profile_subtask",
]

