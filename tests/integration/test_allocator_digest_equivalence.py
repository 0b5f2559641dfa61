"""Pre-redesign decision digests, pinned bit-for-bit through the adapter.

The two-level allocation API routes every run through
``Allocator.allocate(AllocationContext)``; the paper policies ride
through :class:`~repro.core.allocation.CandidatePolicyAdapter`.  The
redesign's contract is that this lift is *invisible*: predictive and
nonpredictive runs take byte-identical decision sequences to the
pre-redesign per-candidate control loop.

The literal digests below were captured on the last commit **before**
the redesign (same baseline, pattern and estimator recipe as the other
integration suites) and must never drift: a mismatch means the adapter
or the manager rewire changed a decision.  They pin the decision
sequence across the policy × chaos × hardening grid.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.runner import run_experiment

BASELINE = BaselineConfig(n_periods=12, seed=5)

#: (scenario, hardened) -> pre-redesign digest, per policy.  Captured
#: at commit 7a0dfbc (pre two-level API) with the fitted_estimator
#: recipe; cells without chaos/hardening share one digest because
#: neither changes unhardened fault-free decisions.
GOLDEN = {
    "predictive": {
        (None, False): (
            "105f0fb0b1cee673c42bbd8fac53d05033caa8ba8814cad671039614d73af825"
        ),
        (None, True): (
            "105f0fb0b1cee673c42bbd8fac53d05033caa8ba8814cad671039614d73af825"
        ),
        ("clock_drift", False): (
            "105f0fb0b1cee673c42bbd8fac53d05033caa8ba8814cad671039614d73af825"
        ),
        ("crashes", True): (
            "70fe8674cb292b3f37983d1e7df3e2ae2a7f3dd7f7531c4516e624adbae2c4bc"
        ),
        ("mayhem", True): (
            "c11ede00ff76e5dc9a44de2295485caf7ef0ff58ed55b5d16c0889db847f627c"
        ),
    },
    "nonpredictive": {
        (None, False): (
            "c1496b53dbef540f11e11f5ece016794bb4d7212cd487d44ade4cb096a927388"
        ),
        (None, True): (
            "c1496b53dbef540f11e11f5ece016794bb4d7212cd487d44ade4cb096a927388"
        ),
        ("clock_drift", False): (
            "c1496b53dbef540f11e11f5ece016794bb4d7212cd487d44ade4cb096a927388"
        ),
        ("crashes", True): (
            "a758fb8b722339ed0291bc6fc6f5653e8c93854e845e2159d30a8c41895a0a4b"
        ),
        ("mayhem", True): (
            "c08b8c63fa51c93d57b2992c77765d9fc6ff1e3c416d0ee7ba27539352fc37ef"
        ),
    },
}


def _run(policy, scenario, hardened, estimator):
    config = ExperimentConfig(
        policy=policy,
        pattern="triangular",
        max_workload_units=15.0,
        baseline=BASELINE,
        chaos_scenario=scenario,
        hardened=hardened,
    )
    return run_experiment(config, estimator=estimator)


@pytest.mark.parametrize("scenario,hardened", list(GOLDEN["predictive"]))
@pytest.mark.parametrize("policy", ["predictive", "nonpredictive"])
class TestPreRedesignDigestsPinned:
    def test_digest_matches_pre_redesign_capture(
        self, policy, scenario, hardened, fitted_estimator
    ):
        result = _run(policy, scenario, hardened, fitted_estimator)
        assert result.decision_digest == GOLDEN[policy][(scenario, hardened)]


class TestDigestProperties:
    def test_digest_is_sha256_hex(self, fitted_estimator):
        result = _run("predictive", None, False, fitted_estimator)
        assert len(result.decision_digest) == 64
        int(result.decision_digest, 16)  # hex-parsable

    def test_digest_distinguishes_policies(self, fitted_estimator):
        a = _run("predictive", None, False, fitted_estimator)
        b = _run("nonpredictive", None, False, fitted_estimator)
        assert a.decision_digest != b.decision_digest


class TestAdapterIsInPath:
    def test_manager_lifts_policies_through_the_adapter(self, fitted_estimator):
        """The manager really lifts level-1 policies into the adapter."""
        from repro.bench.app import aaw_task, default_initial_placement
        from repro.cluster.topology import build_system
        from repro.core.allocation import CandidatePolicyAdapter
        from repro.core.manager import AdaptiveResourceManager
        from repro.core.predictive import PredictivePolicy
        from repro.runtime.executor import PeriodicTaskExecutor
        from repro.tasks.state import ReplicaAssignment

        system = build_system(n_processors=6, seed=0)
        task = aaw_task(noise_sigma=0.0)
        placement = default_initial_placement(
            task, [p.name for p in system.processors]
        )
        executor = PeriodicTaskExecutor(
            system=system,
            task=task,
            assignment=ReplicaAssignment(task, placement),
            workload=lambda period_index: 1000.0,
        )
        manager = AdaptiveResourceManager(
            system=system,
            executor=executor,
            estimator=fitted_estimator,
            policy=PredictivePolicy(),
        )
        assert isinstance(manager.allocator, CandidatePolicyAdapter)
        assert manager.allocator.name == "predictive"
        assert manager.policy is manager.allocator.policy
