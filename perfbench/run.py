"""Whole-run simulator benchmark: one workload, one process, serial.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper6 --seed 0 --seconds 12 --trace 0

A *round* is one serial pass over the workload's experiments
(``workloads.py``); rounds repeat until ``--seconds`` have passed.
``--trace 0`` prints the end-to-end metrics of untraced rounds
(``periods_per_s``, ``run_s``, ``cpu_s``, ``setup_s``, ``peak_rss_mb``);
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics (``layers.py``).  Every run's outputs are checked
(``checks.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a record with
the environment stamps, the raw samples, the failures and (traced) the
layer shares beside their predictions is written under ``perfbench/out/``.

Host times are normalised to the uncontended host with a reference loop
timed around each run (``hostspeed.py``); the raw times are recorded too.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Cold set-ups per ``--trace 0`` invocation (``setup_s`` is their median).
SETUP_REPEATS = 3
#: Lower bound on measured rounds, whatever ``--seconds`` says.
MIN_ROUNDS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(fit_seed: int) -> list[dict]:
    """Cold set-ups in fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(fit_seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def tail_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return {"percentile": 100.0 * (k + 1) / n, "value": sorted(values)[k], "samples": n}


def run_round(runs, estimator, checker) -> list:
    """One serial pass; the ``(run, output)`` pairs of the runs that finished."""
    finished = []
    for run in runs:
        output = checker.execute(run, estimator)
        if output is not None:
            finished.append((run, output))
    return finished


class Samples:
    """Normalised wall and CPU seconds of every run, keyed by run."""

    def __init__(self) -> None:
        self.wall: dict[str, list[float]] = {}
        self.cpu: dict[str, list[float]] = {}
        self.periods: dict[str, int] = {}
        self.raw_wall: list[float] = []

    def add(self, finished) -> None:
        for run, output in finished:
            self.wall.setdefault(run.key, []).append(output.norm_wall_s)
            self.cpu.setdefault(run.key, []).append(output.norm_cpu_s)
            self.periods[run.key] = run.config.baseline.n_periods
            self.raw_wall.append(output.wall_s)

    def all_walls(self) -> list[float]:
        return [w for v in self.wall.values() for w in v]

    def round_wall(self) -> float:
        """Mean wall seconds of one round (the sum of each run's mean)."""
        return sum(statistics.fmean(v) for v in self.wall.values())

    def round_cpu(self) -> float:
        """Mean CPU seconds of one round (the sum of each run's mean)."""
        return sum(statistics.fmean(v) for v in self.cpu.values())


def stamps(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def measure_end_to_end(args, runs, estimator, checker, record) -> dict:
    samples = Samples()
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        samples.add(run_round(runs, estimator, checker))
        rounds += 1
    record["rounds"] = rounds
    record["run_norm_wall_s"] = samples.wall
    record["run_raw_wall_s"] = samples.raw_wall
    walls = samples.all_walls()
    record["run_s_tail"] = tail_percentile(walls)
    if len(samples.wall) < len(runs):
        return {}
    return {
        "periods_per_s": sum(samples.periods.values()) / samples.round_wall(),
        "run_s": statistics.median(walls),
        "cpu_s": samples.round_cpu(),
    }


def measure_layers(args, runs, estimator, checker, record) -> dict:
    from perfbench.layers import PREDICTIONS, layer_metrics, layer_shares
    from perfbench.tracing import LayerTracer

    tracer = LayerTracer()
    plain, traced = Samples(), Samples()
    per_round, shares = [], []
    spans = []
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        plain.add(run_round(runs, estimator, checker))
        tracer.reset()
        with tracer.installed():
            finished = run_round(runs, estimator, checker)
        traced.add(finished)
        rounds += 1
        if len(finished) < len(runs):
            continue
        totals = tracer.snapshot()
        wall = sum(output.wall_s for _, output in finished)
        outputs = [output for _, output in finished]
        per_round.append(layer_metrics(totals, outputs, tracer.snapshot_bytes, wall))
        shares.append(layer_shares(totals, wall))
        spans = list(tracer.spans)
        del finished, outputs
    record["rounds"] = rounds
    record["missing_boundaries"] = sorted(tracer.missing)
    if not per_round or len(plain.wall) < len(runs):
        return {}
    # Raw seconds, middle traced round per metric (counts repeat exactly).
    metrics = {name: statistics.median_low(r[name] for r in per_round) for name in per_round[0]}
    run_until = metrics["sim.run_until_s"]
    metrics["trace.attributed_share"] = (
        1.0 - metrics["sim.dispatch_self_s"] / run_until if run_until else 0.0
    )
    metrics["trace.overhead"] = traced.round_wall() / plain.round_wall()
    record["layers"] = {
        layer: {
            "predicted": PREDICTIONS.get(layer),
            "measured_share": statistics.median(s[layer] for s in shares) if layer in shares[0] else None,
        }
        for layer in PREDICTIONS
    }
    spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with spans_path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.checks import Checker
    from perfbench.hostspeed import normalised
    from perfbench.workloads import DEFAULT_SEED, FIT_SEED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    record = stamps(args)
    metrics = {}
    if args.trace == 0:
        setup = measure_setup(FIT_SEED)
        record["setup_samples"] = setup
        metrics["setup_s"] = statistics.median(
            normalised(s["import_s"] + s["fit_s"], s["refs"]) for s in setup
        )

    from repro.experiments import estimator_cache
    from repro.experiments.config import BaselineConfig

    estimator_cache.clear_memory_cache()
    fit0 = time.perf_counter()
    estimator = estimator_cache.get_estimator(BaselineConfig(seed=FIT_SEED))
    fit_s = time.perf_counter() - fit0

    pinned = None
    if args.seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "pinned.json").read_text()).get(args.workload, {})
    checker = Checker(pinned=pinned)
    runs = workload.runs(args.seed)
    # Warm-up round: untimed; it also runs the one-off checks (resume).
    warm = run_round(runs, estimator, checker)
    record["avg_replicas"] = {run.key: out.result.metrics.avg_replicas for run, out in warm}
    del warm

    if args.trace == 0:
        metrics.update(measure_end_to_end(args, runs, estimator, checker, record))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        metrics.update(measure_layers(args, runs, estimator, checker, record))
        metrics["bench.fit_s"] = fit_s

    record["attempted"] = checker.attempted
    record["failed"] = checker.failed
    record["failed_runs"] = checker.failed / checker.attempted
    record["failures"] = checker.failures
    record["digests"] = checker.digests
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        for failure in checker.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        print(f"error: measured {sorted(metrics)}, declared {sorted(units)}", file=sys.stderr)
        return 1
    record["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    out_path = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    print(" ".join(f"{k}={record[k]}" for k in ("workload", "seed", "cpu_count", "python", "numpy")))
    for failure in checker.failures:
        print(f"FAILED {failure}")
    for name, entry in record["metrics"].items():
        print(f"{name:32s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_runs':32s} {record['failed_runs']:.6g} share ({checker.failed}/{checker.attempted})")
    tail = record.get("run_s_tail")
    if tail:
        print(f"run_s p{tail['percentile']:.0f} {tail['value']:.6g} s over {tail['samples']} runs")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
