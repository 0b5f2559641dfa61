"""The paper's contribution: adaptive resource management (§4).

The two-step process of Figure 1:

1. **Run-time monitoring and candidate selection** (common to both
   algorithms): EQF-variant subtask/message deadline assignment
   (:mod:`repro.core.deadlines`, eqs. 1-2) and slack-based candidate
   detection (:mod:`repro.core.monitoring`).
2. **Determining replicas and processors** (where the algorithms
   differ): the predictive algorithm (:mod:`repro.core.predictive`,
   Figure 5) forecasts replica timeliness via the regression models and
   adds replicas incrementally on least-utilized processors; the
   non-predictive baseline (:mod:`repro.core.nonpredictive`, Figure 7)
   replicates onto every processor below a utilization threshold.
   Both shut replicas down LIFO (:mod:`repro.core.shutdown`, Figure 6).

:class:`~repro.core.manager.AdaptiveResourceManager` wires the steps
into the periodic control loop.
"""

from repro.core.allocation import (
    AllocationContext,
    AllocationOutcome,
    AllocationPlan,
    Allocator,
    CandidatePolicyAdapter,
    get_policy,
    register_policy,
    registered_policies,
)
from repro.core.deadlines import DeadlineAssignment, assign_deadlines
from repro.core.degradation import DataShedder, DegradationController
from repro.core.extra_policies import (
    HybridPolicy,
    NoAdaptationPolicy,
    StaticMaxPolicy,
)
from repro.core.manager import AdaptiveResourceManager, RMConfig
from repro.core.monitoring import MonitorAction, MonitorReport, RuntimeMonitor
from repro.core.nonpredictive import NonPredictivePolicy
from repro.core.predictive import PredictivePolicy
from repro.core.shutdown import (
    ForecastAwareShutdown,
    LifoShutdown,
    shut_down_a_replica,
)
from repro.core.zoo import (
    FairShareAllocator,
    MarketAllocator,
    OracleAllocator,
)

__all__ = [
    "AdaptiveResourceManager",
    "AllocationContext",
    "AllocationOutcome",
    "AllocationPlan",
    "Allocator",
    "CandidatePolicyAdapter",
    "DataShedder",
    "DeadlineAssignment",
    "DegradationController",
    "FairShareAllocator",
    "ForecastAwareShutdown",
    "HybridPolicy",
    "LifoShutdown",
    "MarketAllocator",
    "MonitorAction",
    "MonitorReport",
    "NoAdaptationPolicy",
    "NonPredictivePolicy",
    "OracleAllocator",
    "PredictivePolicy",
    "RMConfig",
    "RuntimeMonitor",
    "StaticMaxPolicy",
    "assign_deadlines",
    "get_policy",
    "register_policy",
    "registered_policies",
    "shut_down_a_replica",
]
