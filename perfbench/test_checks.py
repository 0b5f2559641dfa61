"""The benchmark's output checker counts bad runs instead of crashing.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench.checks import Checker, RunOutput  # noqa: E402

HORIZON = 10.0


def fake_output(digest="a" * 64, busy=4.0, delivered=3, created=5):
    meter = SimpleNamespace(busy_between=lambda t0, t1: busy)
    world = SimpleNamespace(
        horizon=HORIZON,
        system=SimpleNamespace(
            processors=[SimpleNamespace(name="p0", meter=meter)],
            network=SimpleNamespace(delivered_count=delivered, dropped_count=0, lost_count=0),
        ),
    )
    metrics = SimpleNamespace(
        missed_deadline_ratio=0.1,
        avg_cpu_utilization=0.2,
        avg_network_utilization=0.3,
        replica_ratio=0.4,
    )
    result = SimpleNamespace(metrics=metrics, decision_digest=digest, scorecard=None)
    return RunOutput(result, world, created, wall_s=0.01, cpu_s=0.01, refs=(0.005, 0.005))


def fake_run(key="run"):
    return SimpleNamespace(key=key, config=SimpleNamespace(chaos_scenario=None, checkpoint=None))


def test_sound_run_passes():
    checker = Checker(pinned={"run": "a" * 64})
    assert checker.execute(fake_run(), None, runner=lambda r, e: fake_output()) is not None
    assert (checker.attempted, checker.failed) == (1, 0)


def test_tampered_digest_against_pin_is_a_failed_run():
    checker = Checker(pinned={"run": "b" * 64})
    checker.execute(fake_run(), None, runner=lambda r, e: fake_output())
    assert (checker.attempted, checker.failed) == (1, 1)
    assert "pinned" in checker.failures[0]


def test_digest_changing_between_repeats_is_a_failed_run():
    checker = Checker()
    checker.execute(fake_run(), None, runner=lambda r, e: fake_output("a" * 64))
    checker.execute(fake_run(), None, runner=lambda r, e: fake_output("c" * 64))
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "differs" in checker.failures[0]


def test_injected_exception_is_a_failed_run():
    def explode(run, estimator):
        raise RuntimeError("injected")

    checker = Checker()
    assert checker.execute(fake_run(), None, runner=explode) is None
    checker.execute(fake_run(), None, runner=lambda r, e: fake_output())
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "RuntimeError: injected" in checker.failures[0]


def test_physical_invariants_are_checked():
    checker = Checker()
    checker.execute(fake_run("busy"), None, runner=lambda r, e: fake_output(busy=HORIZON + 1))
    checker.execute(fake_run("net"), None, runner=lambda r, e: fake_output(delivered=6))
    assert checker.failed == 2
    assert "busy" in checker.failures[0] and "messages" in checker.failures[1]


def test_real_run_passes_and_tampered_pin_fails():
    from repro.experiments import estimator_cache
    from repro.experiments.config import BaselineConfig, ExperimentConfig

    baseline = BaselineConfig(n_periods=8)
    config = ExperimentConfig(policy="predictive", pattern="triangular",
                              max_workload_units=10.0, baseline=baseline)
    run = SimpleNamespace(key="real", config=config, seed_offset=0)
    estimator = estimator_cache.get_estimator(baseline)
    checker = Checker()
    output = checker.execute(run, estimator)
    assert output is not None and checker.failed == 0
    tampered = Checker(pinned={"real": output.result.decision_digest[::-1]})
    tampered.execute(run, estimator)
    assert tampered.failed == 1


def test_tracer_restores_the_program_and_keeps_digests():
    from repro.cluster.processor import Processor
    from repro.experiments import estimator_cache, runner
    from repro.experiments.config import BaselineConfig, ExperimentConfig

    from perfbench.tracing import LayerTracer

    originals = (Processor.utilization, runner.build_world)
    baseline = BaselineConfig(n_periods=8)
    config = ExperimentConfig(policy="nonpredictive", pattern="triangular",
                              max_workload_units=10.0, baseline=baseline)
    run = SimpleNamespace(key="real", config=config, seed_offset=0)
    estimator = estimator_cache.get_estimator(baseline)
    checker = Checker()
    checker.execute(run, estimator)
    tracer = LayerTracer()
    with tracer.installed():
        assert Processor.utilization is not originals[0]
        assert checker.execute(run, estimator) is not None
    assert (Processor.utilization, runner.build_world) == originals
    assert checker.failed == 0
    assert tracer.totals["Engine.run_until"][0] == 1
    assert not tracer.missing
