"""Decision digests of every registered policy, pinned bit-for-bit.

Every run goes through ``Allocator.allocate(AllocationContext)``.  The
contract is that reshaping the allocation API is *invisible*: each
policy takes byte-identical decision sequences to the captures below.

``GOLDEN`` was captured on the last commit before the cycle-scoped
``Allocator`` level existed (same baseline, pattern and estimator recipe
as the other integration suites); ``OTHER_POLICIES`` and
``FORECAST_AWARE`` were captured on the last commit before the
per-candidate request type was folded into ``AllocationContext``.  None
may drift: a mismatch means an API change altered a decision.
"""

from __future__ import annotations

from dataclasses import replace

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

#: (scenario, hardened) -> digest for the zoo and the extra policies,
#: captured before the per-candidate request type was removed.
OTHER_POLICIES = {
    "market": {
        (None, False): (
            "296c2256327e02dfa8abaeb9dbde23c663dd843e0654628459f1d81a2d6e034e"
        ),
        ("mayhem", True): (
            "de9ea88c2b04eff3cb01c39f25a5f83f2e2b9ec167fd4a1094210d1656f2b0fb"
        ),
    },
    "fairshare": {
        (None, False): (
            "39e38343d9406263fc797e7b4b524e0993c840b333904f898ff928610e91deb4"
        ),
        ("mayhem", True): (
            "994e0ac50cf4239ceec1436f6fabaf37b2f5edfacada27d86d498d064a1da051"
        ),
    },
    "oracle": {
        (None, False): (
            "7b591862a2abf04676e30f1b1c466204c0e4b84484189f1b517ca1142f2af32e"
        ),
        ("mayhem", True): (
            "9c0cbc5d86be55d670f13fc532a3bc426917d819e53b42110f413b5bf13ca146"
        ),
    },
    "hybrid": {
        (None, False): (
            "182f97ce9dab60b02db33937605a7430a6042ac66abee9928e5b4faa47b5a48d"
        ),
        ("mayhem", True): (
            "1900a0ecc5dc5f858c80560aeeac6a26c1af8df578f4dd4abe65f8dd92aa8725"
        ),
    },
    "staticmax": {
        (None, False): (
            "74df775959f65aaa6b9af7c166c0b05028bbfa30b89d7aa08ce2856ae24753e2"
        ),
        ("mayhem", True): (
            "973e25ec1cdb882b8bbbba56c65087e3e5c3c43b4083476b2458e9ce3d67800b"
        ),
    },
    "noadapt": {
        (None, False): (
            "d115897092697dc20f4783d9e15769e748923262584669d986bb8ec48939d636"
        ),
        ("mayhem", True): (
            "a4aeb9b8f9c98531029e2f1b0171ad9d1eb4fb6326d4bbde2ca325f052045c9e"
        ),
    },
}

#: (scenario, hardened) -> digest of the paper policies under the
#: forecast-aware shutdown strategy (same capture as OTHER_POLICIES).
FORECAST_AWARE = {
    "predictive": {
        (None, False): (
            "a5b8a1595213a7d15c8eebc9828a913057aa47707601b89fdc386f14cb845a6e"
        ),
        ("crashes", True): (
            "59b6088030252704e15d44482abaa37512c7bfa00faa489209fbda47ef34b07e"
        ),
    },
    "nonpredictive": {
        (None, False): (
            "7d7a87b8b3ea671a082dd40d98f8e1927416b734ffba522abbf1b79e6e7fff71"
        ),
        ("crashes", True): (
            "51545fccad7b9cf5e465ef1c8b44c8af2d12ca05899d0817ba16ed15d0641f34"
        ),
    },
}


def _run(policy, scenario, hardened, estimator, shutdown_strategy="lifo"):
    config = ExperimentConfig(
        policy=policy,
        pattern="triangular",
        max_workload_units=15.0,
        baseline=replace(BASELINE, shutdown_strategy=shutdown_strategy),
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


class TestEveryPolicyPinned:
    @pytest.mark.parametrize(
        "policy,scenario,hardened",
        [
            (policy, scenario, hardened)
            for policy, cells in OTHER_POLICIES.items()
            for scenario, hardened in cells
        ],
    )
    def test_digest_matches_capture(
        self, policy, scenario, hardened, fitted_estimator
    ):
        result = _run(policy, scenario, hardened, fitted_estimator)
        assert result.decision_digest == OTHER_POLICIES[policy][(scenario, hardened)]

    @pytest.mark.parametrize(
        "policy,scenario,hardened",
        [
            (policy, scenario, hardened)
            for policy, cells in FORECAST_AWARE.items()
            for scenario, hardened in cells
        ],
    )
    def test_forecast_aware_shutdown_digest_matches_capture(
        self, policy, scenario, hardened, fitted_estimator
    ):
        result = _run(
            policy, scenario, hardened, fitted_estimator, "forecast_aware"
        )
        assert result.decision_digest == FORECAST_AWARE[policy][(scenario, hardened)]


#: Hardened predictive at P=16 under ``flaky_node``: the placement guard
#: keeps the flapping p2 out of Figure 5's walk, which then picks past
#: it (several multi-replica walks, names p1..p16 in string order).
#: Captured on the last commit before Figure 5 drew every replica from
#: one sorted walk per decision.
GUARDED_WALK = BaselineConfig(n_nodes=16, n_periods=60, seed=5)
GUARDED_WALK_DIGEST = (
    "afe35d601834e540bda18709115cb15e888f0ef440b6e52e6148d9edde900d0d"
)


def test_guard_excluded_walk_digest_pinned(fitted_estimator, monkeypatch):
    from repro.core.hardening import PlacementGuard
    from repro.core.predictive import PredictivePolicy

    exclusions = []
    walks = []
    excluded = PlacementGuard.excluded
    replicate = PredictivePolicy.replicate

    def spy_excluded(self, now):
        result = excluded(self, now)
        exclusions.append(result)
        return result

    def spy_replicate(self, context, subtask_index):
        outcome = replicate(self, context, subtask_index)
        walks.append((context.excluded_processors, outcome.added_processors))
        return outcome

    monkeypatch.setattr(PlacementGuard, "excluded", spy_excluded)
    monkeypatch.setattr(PredictivePolicy, "replicate", spy_replicate)
    config = ExperimentConfig(
        policy="predictive",
        pattern="triangular",
        max_workload_units=40.0,
        baseline=GUARDED_WALK,
        chaos_scenario="flaky_node",
        hardened=True,
    )
    result = run_experiment(config, estimator=fitted_estimator)
    assert result.decision_digest == GUARDED_WALK_DIGEST
    # The guard really excluded a processor, and walks ran past it.
    assert any(exclusions)
    guarded = [added for blocked, added in walks if blocked]
    assert any(len(added) >= 2 for added in guarded)
    assert all("p2" not in added for added in guarded)


#: Registered policies that resolve one candidate at a time.
PER_CANDIDATE = ("predictive", "nonpredictive", "hybrid", "staticmax", "noadapt")


class TestManagerRunsPolicy:
    def test_no_wrapper(self, fitted_estimator, monkeypatch):
        """The manager calls ``allocate`` on the policy object itself."""
        from repro.bench.app import aaw_task, default_initial_placement
        from repro.cluster.topology import build_system
        from repro.core.allocation import CandidatePolicyAdapter, get_policy
        from repro.core.manager import AdaptiveResourceManager
        from repro.runtime.executor import PeriodicTaskExecutor
        from repro.tasks.state import ReplicaAssignment

        for name in [*GOLDEN, *OTHER_POLICIES]:
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
            policy = get_policy(name)
            manager = AdaptiveResourceManager(
                system=system,
                executor=executor,
                estimator=fitted_estimator,
                policy=policy,
            )
            assert manager.policy is policy
            assert not hasattr(manager, "allocator")
            if name in PER_CANDIDATE:
                assert isinstance(policy, CandidatePolicyAdapter)
                assert type(policy).allocate is CandidatePolicyAdapter.allocate

            called_on = []
            original = type(policy).allocate

            def spy(self, context, original=original):
                called_on.append(self)
                return original(self, context)

            with monkeypatch.context() as patch:
                patch.setattr(type(policy), "allocate", spy)
                event = manager.step()
            assert called_on == [policy], name
            assert event.policy_name == name
