"""Running one experiment and checking its outputs from outside.

:func:`run_once` runs one :func:`repro.experiments.runner.run_experiment`
call, timed, and keeps the world it built so the checks can inspect it.
:class:`Checker` counts every run attempted and every run that raised or
failed a check; a failure never stops the benchmark, it is counted and
described.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from perfbench.hostspeed import normalised, reference_s

#: The §5.2 metrics that are ratios, so lie in [0, 1].
RATIO_METRICS = (
    "missed_deadline_ratio",
    "avg_cpu_utilization",
    "avg_network_utilization",
    "replica_ratio",
)


@dataclass
class RunOutput:
    """One finished run: its result, its world, and what it cost."""

    result: object
    world: object
    #: Messages minted during the run (``Network.send`` is their only user).
    messages_created: int
    wall_s: float
    cpu_s: float
    #: Host-speed reference times right before and right after the run.
    refs: tuple[float, float]

    @property
    def norm_wall_s(self) -> float:
        """Wall time scaled to the uncontended host (``hostspeed.py``)."""
        return normalised(self.wall_s, list(self.refs))

    @property
    def norm_cpu_s(self) -> float:
        """CPU time scaled to the uncontended host."""
        return normalised(self.cpu_s, list(self.refs))


def run_once(run, estimator) -> RunOutput:
    """Run ``run`` through ``run_experiment``, keeping the world it builds.

    ``runner.build_world`` is swapped for a capturing wrapper for the
    duration of the call only; the timed region is the
    ``run_experiment`` call itself, bracketed by host-speed references.
    """
    from repro.cluster import network
    from repro.experiments import runner

    build = runner.build_world
    worlds = []

    def capture(*args, **kwargs):
        world = build(*args, **kwargs)
        worlds.append(world)
        return world

    runner.build_world = capture
    created = network._message_ids.value
    ref_before = reference_s()
    try:
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        result = runner.run_experiment(
            run.config, estimator=estimator, seed_offset=run.seed_offset
        )
        cpu_s = time.process_time() - cpu0
        wall_s = time.perf_counter() - wall0
    finally:
        runner.build_world = build
    ref_after = reference_s()
    return RunOutput(
        result=result,
        world=worlds[-1],
        messages_created=network._message_ids.value - created,
        wall_s=wall_s,
        cpu_s=cpu_s,
        refs=(ref_before, ref_after),
    )


def invariant_problems(run, output: RunOutput) -> list[str]:
    """Physical and §5.2 checks on one finished run (empty when sound)."""
    problems = []
    result, world = output.result, output.world
    horizon = world.horizon
    for processor in world.system.processors:
        busy = processor.meter.busy_between(0.0, horizon)
        if not 0.0 <= busy <= horizon:
            problems.append(f"{processor.name} busy {busy!r} s outside [0, {horizon}]")
    net = world.system.network
    accounted = net.delivered_count + net.dropped_count + net.lost_count
    if accounted > output.messages_created:
        problems.append(
            f"messages delivered+dropped+lost {accounted} > sent {output.messages_created}"
        )
    for name in RATIO_METRICS:
        value = getattr(result.metrics, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"metric {name}={value!r} outside [0, 1]")
    if run.config.chaos_scenario == "rm_crash_under_load":
        card = result.scorecard
        if card is None or card.rm_crashes != 1:
            problems.append(f"rm_crashes {getattr(card, 'rm_crashes', None)!r} != 1")
        elif card.takeover_latency_s is None or not math.isfinite(card.takeover_latency_s):
            problems.append(f"takeover latency {card.takeover_latency_s!r} not finite")
    return problems


def resume_problems(output: RunOutput) -> list[str]:
    """Resume the run from its last checkpoint; the digest must not change."""
    from repro.recovery import resume_experiment

    snapshot = output.world.checkpointer.latest
    if snapshot is None:
        return ["checkpointed run took no snapshot"]
    resumed = resume_experiment(snapshot).decision_digest
    if resumed != output.result.decision_digest:
        return [f"resume from t={snapshot.time:g} gave digest {resumed[:12]}"]
    return []


@dataclass
class Checker:
    """Counts runs attempted and failed, and remembers each run's digest.

    ``pinned`` maps run keys to the decision digests expected for the
    default seed (``None`` for any other seed).
    """

    pinned: dict[str, str] | None = None
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def execute(self, run, estimator, runner=run_once) -> RunOutput | None:
        """Run and check ``run``; its output, or ``None`` if it raised.

        A run that fails a check is counted in ``failed`` but still
        returned, because its time was measured.
        """
        self.attempted += 1
        first = run.key not in self.digests
        output = None
        try:
            output = runner(run, estimator)
            problems = invariant_problems(run, output)
            problems += self._digest_problems(run.key, output.result.decision_digest)
            if first and run.config.checkpoint is not None:
                problems += resume_problems(output)
        except Exception as exc:  # a failed run is counted, not fatal
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.append(f"{run.key}: " + "; ".join(problems))
        return output

    def _digest_problems(self, key: str, digest: str) -> list[str]:
        problems = []
        seen = self.digests.setdefault(key, digest)
        if seen != digest:
            problems.append(f"digest {digest[:12]} differs from earlier {seen[:12]}")
        if self.pinned is not None:
            expected = self.pinned.get(key)
            if expected != digest:
                problems.append(f"digest {digest[:12]} != pinned {str(expected)[:12]}")
        return problems
