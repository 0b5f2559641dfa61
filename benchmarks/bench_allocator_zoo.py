"""E-ZOO — the allocator zoo scored against the CPU oracle.

Sweeps the policy × workload-pattern × chaos-scenario matrix over the
two paper policies (per-candidate
:class:`~repro.core.allocation.CandidatePolicyAdapter` subclasses) and
the three cycle-scoped allocators (``market``, ``fairshare``, ``oracle``), turning
each cell group's combined metric C into per-policy *regret* against the
oracle via :func:`repro.experiments.metrics.regret_by_policy`.  The
report lands in ``benchmarks/out/BENCH_allocator_zoo.json``.

Two hard requirements (nonzero exit when violated):

* **replay determinism** — re-running a cell under the same master seed
  must reproduce its metrics and decision digest bit-identically;
* **oracle near-optimality** — on every fault-free cell the oracle's
  regret is zero by construction and no policy may beat it by more than
  ``ORACLE_SLACK``.  The slack exists because the oracle sees true CPU
  demand, not the full combined metric: a cheaper policy can shave C a
  little through lower replica counts, but a larger gap means the
  oracle's forecasts stopped being a meaningful upper baseline.

Run standalone (``python benchmarks/bench_allocator_zoo.py``), in CI
smoke form (``--smoke``: fewer periods), or via
``pytest benchmarks/bench_allocator_zoo.py -m "slow or not slow"``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import pytest

OUT_PATH = Path(__file__).parent / "out" / "BENCH_allocator_zoo.json"

#: Every registered allocator the experiment runner accepts end to end.
POLICIES = ("predictive", "nonpredictive", "market", "fairshare", "oracle")

#: Workload shapes from Figure 8 — one symmetric ramp, one monotonic
#: ramp, one bursty profile.
PATTERNS = ("triangular", "increasing", "bursty")

#: (chaos scenario, hardened) cells.  The fault cells run hardened so a
#: corrupted utilization reading is sanitized instead of crashing the
#: regression model inside every zoo allocator.
SCENARIOS = ((None, False), ("crashes", True), ("clock_drift", True))

#: No policy may beat the oracle's combined metric by more than this on
#: a fault-free cell (see the module docstring for why zero is too
#: strict: the oracle is a CPU-demand oracle, not a C oracle).
ORACLE_SLACK = 0.02

FULL_PERIODS = 40
SMOKE_PERIODS = 12

#: Peak offered workload — hot enough that every policy must replicate.
MAX_WORKLOAD_UNITS = 15.0

MASTER_SEED = 5


def _run_cell(policy, pattern, scenario, hardened, baseline, estimator):
    """One matrix cell; returns (metrics dict | None, digest | None, error)."""
    from repro.errors import ReproError
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    try:
        result = run_experiment(
            ExperimentConfig(
                policy=policy,
                pattern=pattern,
                max_workload_units=MAX_WORKLOAD_UNITS,
                baseline=baseline,
                chaos_scenario=scenario,
                hardened=hardened,
            ),
            estimator=estimator,
        )
    except ReproError as exc:
        return None, None, f"{type(exc).__name__}: {exc}"
    return result.metrics.as_dict(), result.decision_digest, None


def measure_allocator_zoo(n_periods: int = FULL_PERIODS) -> dict:
    """The policy × pattern × scenario matrix with per-cell regret."""
    from repro.experiments.config import BaselineConfig
    from repro.experiments.estimator_cache import get_estimator
    from repro.experiments.metrics import regret_by_policy

    baseline = BaselineConfig(n_periods=n_periods, seed=MASTER_SEED)
    estimator = get_estimator(baseline)

    rows = []
    for pattern in PATTERNS:
        for scenario, hardened in SCENARIOS:
            combined: dict[str, float] = {}
            group = []
            for policy in POLICIES:
                metrics, digest, error = _run_cell(
                    policy, pattern, scenario, hardened, baseline, estimator
                )
                if metrics is not None:
                    combined[policy] = metrics["combined"]
                group.append(
                    {
                        "policy": policy,
                        "pattern": pattern,
                        "scenario": scenario,
                        "hardened": hardened,
                        "crashed": error is not None,
                        "error": error,
                        "decision_digest": digest,
                        "metrics": metrics,
                    }
                )
            regrets = (
                regret_by_policy(combined) if "oracle" in combined else {}
            )
            for row in group:
                row["regret"] = regrets.get(row["policy"])
            rows.extend(group)

    # Replay determinism: the first cell, re-run from scratch.
    replay_metrics, replay_digest, replay_error = _run_cell(
        rows[0]["policy"],
        rows[0]["pattern"],
        rows[0]["scenario"],
        rows[0]["hardened"],
        baseline,
        estimator,
    )
    replay_identical = (
        replay_metrics == rows[0]["metrics"]
        and replay_digest == rows[0]["decision_digest"]
        and (replay_error is not None) == rows[0]["crashed"]
    )

    return {
        "bench": "allocator_zoo",
        "kernel": {
            "n_periods": n_periods,
            "max_workload_units": MAX_WORKLOAD_UNITS,
            "master_seed": MASTER_SEED,
            "policies": list(POLICIES),
            "patterns": list(PATTERNS),
            "scenarios": [list(cell) for cell in SCENARIOS],
        },
        "hardware": {
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "requirements": {"oracle_slack": ORACLE_SLACK},
        "replay_identical": replay_identical,
        "rows": rows,
        "note": "regret = C_policy - C_oracle within each "
        "(pattern, scenario) cell group; lower C is better, so a "
        "negative regret means the policy beat the CPU oracle",
    }


def check_report(report: dict) -> list[str]:
    """Hard requirements; returns human-readable violations."""
    problems = []
    if not report["replay_identical"]:
        problems.append("fixed-seed replay diverged (metrics or digest)")
    for row in report["rows"]:
        if row["crashed"]:
            problems.append(
                f"{row['policy']}/{row['pattern']}/{row['scenario']}: "
                f"cell crashed: {row['error']}"
            )
            continue
        if row["regret"] is None:
            problems.append(
                f"{row['policy']}/{row['pattern']}/{row['scenario']}: "
                "no regret (oracle reference missing from cell group)"
            )
            continue
        if row["scenario"] is None and row["regret"] < -ORACLE_SLACK:
            problems.append(
                f"{row['policy']}/{row['pattern']} beats the oracle by "
                f"{-row['regret']:.4f} on a fault-free cell "
                f"(slack {ORACLE_SLACK})"
            )
    oracle_rows = [r for r in report["rows"] if r["policy"] == "oracle"]
    if any(r["regret"] not in (0.0, None) for r in oracle_rows):
        problems.append("the oracle's regret against itself is not zero")
    return problems


def write_report(report: dict) -> Path:
    from repro.experiments.export import atomic_write_json

    return atomic_write_json(OUT_PATH, report)


@pytest.mark.slow
def test_allocator_zoo():
    report = measure_allocator_zoo(n_periods=SMOKE_PERIODS)
    path = write_report(report)
    print(f"\nallocator zoo report written to {path}")
    problems = check_report(report)
    assert not problems, "\n".join(problems)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke form: fewer periods per run",
    )
    args = parser.parse_args(argv)
    periods = SMOKE_PERIODS if args.smoke else FULL_PERIODS
    report = measure_allocator_zoo(n_periods=periods)
    path = write_report(report)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"written to {path}")
    problems = check_report(report)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
