"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table {1,2,3}``
    Regenerate a paper table.
``figure {8,9,10,11,12,13}``
    Regenerate a paper figure's series (optionally reduced ``--units``).
``run``
    One experiment: ``--policy``, ``--pattern``, ``--max-units`` etc.,
    with optional ``--tasks N`` (multi-task) or ``--seeds N``
    (replication statistics) and ``--csv/--json`` export.
    ``--telemetry-dir DIR`` streams a JSONL trace and writes metrics
    snapshots (JSON + Prometheus text) into ``DIR``.
``trace``
    Summarize a telemetry JSONL trace (per-processor utilization,
    replica counts, forecast calibration) and convert it to the Chrome
    trace-event format for chrome://tracing / Perfetto.
``profile``
    Profile one subtask and print the fitted eq. 3 coefficients.
``patterns``
    Print the Figure 8 workload series.
``capacity``
    Offline capacity plan from the fitted models.
``validate``
    Run the paper-claims validation suite (exit code 1 on any FAIL).
``report``
    Regenerate the whole evaluation as one Markdown document, or — with
    ``--health`` — render one run's self-contained HTML health report
    (metrics, SLO verdicts with burn-rate sparklines, profiler
    breakdown, forecast calibration).
``slo``
    Run one experiment against a set of service-level objectives and
    print the verdicts; ``--check`` turns breaches into exit code 1
    for CI gates, ``--rules`` loads a ``[[slo.rules]]`` TOML file.
``campaign``
    A whole policy × pattern × workload × seed grid in one shot, with
    ``--jobs N`` process-pool parallelism and per-run accounting;
    ``--scenarios`` / ``--hardened-axis`` extend the grid along the
    chaos axes, ``--slo`` evaluates rules per cell and ``--rollup``
    writes the order-independent campaign rollup JSON.
    ``--journal PATH`` appends every finished cell durably;
    ``--resume`` re-runs only the missing cells after a crash and
    ``--retries N`` survives dying worker processes.
``chaos``
    One experiment under a named fault-injection scenario, reporting
    the resilience scorecard; ``--compare`` runs the hardened and
    unhardened RM side by side, ``--failover`` arms the standby
    controller for the ``rm_crash*`` scenarios, ``--list`` prints the
    scenario catalogue.
``lint``
    Static-analysis suite over a source tree (determinism, unit-safety,
    layering, pickling rules); exit code 1 on violations.

Global options (``--periods``, ``--seed``, ``--nodes``,
``--network-mode``, ``--jobs``, ``--cache-dir``) precede the
subcommand.  ``--jobs N`` fans the runs of a sweep, replication or
campaign out over ``N`` worker processes with byte-identical output;
``--cache-dir`` keeps estimator fits across invocations.  Every command
is importable and testable via :func:`main(argv)`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import ConfigurationError, ReproError
from repro.experiments.config import (
    DEFAULT_SWEEP_UNITS,
    BaselineConfig,
    ExperimentConfig,
)
from repro.experiments.report import format_table


def _baseline_from_args(args: argparse.Namespace) -> BaselineConfig:
    overrides = {}
    if getattr(args, "periods", None) is not None:
        overrides["n_periods"] = args.periods
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "nodes", None) is not None:
        overrides["n_nodes"] = args.nodes
    if getattr(args, "network_mode", None):
        overrides["network_mode"] = args.network_mode
    return BaselineConfig(**overrides)


def _units_from_args(args: argparse.Namespace) -> tuple[float, ...]:
    if getattr(args, "units", None):
        return tuple(args.units)
    return DEFAULT_SWEEP_UNITS


def _jobs_from_args(args: argparse.Namespace) -> int:
    jobs = getattr(args, "jobs", None)
    # 0 / negative means "all CPUs" (resolved by the pool).
    return 1 if jobs is None else jobs


def _cache_dir_from_args(args: argparse.Namespace):
    return getattr(args, "cache_dir", None)


def _slo_rules_from_args(args: argparse.Namespace):
    """The rule set for ``repro slo`` / ``repro report --health``."""
    from repro.telemetry.slo import DEFAULT_SLO_RULES, load_slo_rules

    rules = getattr(args, "rules", None)
    if rules:
        from pathlib import Path

        return load_slo_rules(Path(rules))
    return DEFAULT_SLO_RULES


def _run_observed(args: argparse.Namespace):
    """One fully-observed run: SLO rules + profiler armed on a hub.

    Returns ``(config, result, hub, profiler)``; the hub is closed (no
    sink attached, so this only settles dangling spans).
    """
    from repro.experiments.estimator_cache import get_estimator
    from repro.experiments.runner import run_experiment
    from repro.telemetry import TelemetryHub

    baseline = _baseline_from_args(args)
    config = ExperimentConfig(
        policy=args.policy,
        pattern=args.pattern,
        max_workload_units=args.max_units,
        baseline=baseline,
        chaos_scenario=getattr(args, "scenario", None),
        hardened=bool(getattr(args, "hardened", False)),
        slo=_slo_rules_from_args(args),
    )
    estimator = get_estimator(baseline, cache_dir=_cache_dir_from_args(args))
    hub = TelemetryHub()
    profiler = hub.arm_profiler()
    try:
        result = run_experiment(config, estimator=estimator, telemetry=hub)
    finally:
        hub.close()
    return config, result, hub, profiler


# -- command handlers -----------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> int:
    """Handle ``repro table {1,2,3}``."""
    from repro.experiments import tables

    baseline = _baseline_from_args(args)
    if args.number == 1:
        print(tables.render_table1(baseline))
    elif args.number == 2:
        print(tables.render_table2(tables.reproduce_table2(baseline)))
    else:
        print(tables.render_table3(tables.reproduce_table3(baseline)))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Handle ``repro figure {8..13}`` (optionally exporting CSV)."""
    from repro.experiments import figures
    from repro.experiments.estimator_cache import get_estimator

    baseline = _baseline_from_args(args)
    units = _units_from_args(args)
    if args.number == 8:
        print(figures.fig8_workload_patterns(baseline=baseline).render())
        return 0
    estimator = get_estimator(baseline, cache_dir=_cache_dir_from_args(args))
    kwargs = dict(
        units=units,
        baseline=baseline,
        estimator=estimator,
        n_jobs=_jobs_from_args(args),
    )
    produced: list = []
    if args.number == 9:
        panels = figures.fig9_triangular_panels(**kwargs)
        produced = [panels[letter] for letter in "abcd"]
    elif args.number == 10:
        produced = [figures.fig10_triangular_combined(**kwargs)]
    elif args.number == 11:
        panels = figures.fig11_increasing_panels(**kwargs)
        produced = [panels[letter] for letter in "abcd"]
    elif args.number == 12:
        panels = figures.fig12_decreasing_panels(**kwargs)
        produced = [panels[letter] for letter in "abcd"]
    else:
        parts = figures.fig13_ramp_combined(**kwargs)
        produced = [parts["a"], parts["b"]]
    print("\n\n".join(data.render() for data in produced))
    if args.csv:
        from pathlib import Path

        from repro.experiments.export import figure_to_csv

        base = Path(args.csv)
        for i, data in enumerate(produced):
            target = (
                base
                if len(produced) == 1
                else base.with_name(f"{base.stem}_{i + 1}{base.suffix}")
            )
            figure_to_csv(data, target)
            print(f"series written to {target}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Handle ``repro run`` (single, multi-task or replicated)."""
    from repro.experiments.estimator_cache import get_estimator

    baseline = _baseline_from_args(args)
    config = ExperimentConfig(
        policy=args.policy,
        pattern=args.pattern,
        max_workload_units=args.max_units,
        baseline=baseline,
        checkpoint=args.checkpoint,
    )
    telemetry_dir = getattr(args, "telemetry_dir", None)
    # Every refusal comes before the estimator fit (seconds on a cold
    # cache).
    if args.tasks > 1 and args.seeds > 1:
        raise ConfigurationError(
            "--tasks and --seeds cannot be combined: --tasks runs one "
            "multi-task experiment, --seeds replicates a single-task run"
        )
    if telemetry_dir and (args.tasks > 1 or args.seeds > 1):
        raise ConfigurationError(
            "--telemetry-dir instruments a single run; "
            "drop --tasks/--seeds or run them separately"
        )
    if args.tasks > 1:
        from repro.experiments.multitask import check_multi_task_config

        check_multi_task_config(config)
    estimator = get_estimator(baseline, cache_dir=_cache_dir_from_args(args))

    hub = None
    if telemetry_dir:
        from pathlib import Path

        from repro.telemetry import JsonlTraceSink, TelemetryHub

        hub = TelemetryHub(sink=JsonlTraceSink(Path(telemetry_dir) / "trace.jsonl"))

    try:
        metrics, forecast_report = _run_cmd_run_body(args, config, estimator, hub)
    finally:
        # Close (and so flush) the trace sink even when the run dies
        # mid-flight — the buffered records up to the failure point are
        # exactly what a post-mortem needs.
        if hub is not None:
            hub.close()

    if hub is not None:
        from pathlib import Path

        out = Path(telemetry_dir)
        (out / "metrics.json").write_text(hub.registry.to_json(hub.now))
        (out / "metrics.prom").write_text(hub.registry.to_prometheus(hub.now))
        print(
            f"telemetry written to {out} "
            "(trace.jsonl, metrics.json, metrics.prom)"
        )

    if args.json:
        from repro.experiments.export import metrics_to_json

        metrics_to_json(
            metrics,
            args.json,
            extra={
                "policy": args.policy,
                "pattern": args.pattern,
                "max_units": args.max_units,
                "forecasts": (
                    None
                    if forecast_report is None
                    else {
                        "n": forecast_report.n,
                        "mape": forecast_report.mape,
                        "mean_error_s": forecast_report.mean_error_s,
                        "pessimism_rate": forecast_report.pessimism_rate,
                        "missed_deadline_ratio": (
                            forecast_report.missed_deadline_ratio
                        ),
                    }
                ),
            },
        )
        print(f"metrics written to {args.json}")
    return 0


def _run_cmd_run_body(args, config, estimator, hub):
    """The run/print phase of ``repro run`` (split out so the caller can
    guarantee the telemetry sink is flushed on any exit path)."""
    from repro.experiments.runner import run_experiment

    forecast_report = None
    if args.tasks > 1:
        from repro.experiments.multitask import run_multi_task_experiment

        result = run_multi_task_experiment(
            config, n_tasks=args.tasks, estimator=estimator
        )
        metrics = result.aggregate
        rows = [
            [name, m.missed_deadline_ratio, m.avg_replicas, m.rm_actions]
            for name, m in sorted(result.per_task_metrics.items())
        ]
        print(
            format_table(
                ["task", "missed", "avg replicas", "rm actions"],
                rows,
                title=f"{args.tasks} tasks, {args.policy}, {args.pattern}, "
                f"{args.max_units:g} units",
            )
        )
    elif args.seeds > 1:
        from repro.experiments.replication import replicate_experiment

        replicated = replicate_experiment(
            config,
            n_seeds=args.seeds,
            estimator=estimator,
            n_jobs=_jobs_from_args(args),
            cache_dir=_cache_dir_from_args(args),
        )
        rows = [
            [s.name, s.mean, s.std, f"[{s.ci_low:.3f}, {s.ci_high:.3f}]"]
            for s in replicated.summaries.values()
        ]
        print(
            format_table(
                ["metric", "mean", "sd", "95% CI"],
                rows,
                title=f"{args.seeds} seeds, {args.policy}, {args.pattern}, "
                f"{args.max_units:g} units",
            )
        )
        metrics = replicated.runs[0]
    else:
        result = run_experiment(config, estimator=estimator, telemetry=hub)
        metrics = result.metrics
        forecast_report = result.forecasts
        rows = [[k, v] for k, v in metrics.as_dict().items()]
        rows.append(["rm_actions", metrics.rm_actions])
        rows.append(["periods", metrics.periods_released])
        print(
            format_table(
                ["metric", "value"],
                rows,
                title=f"{args.policy}, {args.pattern}, {args.max_units:g} units",
            )
        )
    return metrics, forecast_report


def cmd_trace(args: argparse.Namespace) -> int:
    """Handle ``repro trace``: summarize + convert a JSONL trace."""
    from pathlib import Path

    from repro.telemetry import read_jsonl, summarize_trace, write_chrome_trace

    records = read_jsonl(args.trace)
    print(summarize_trace(records))
    if not args.no_chrome:
        target = (
            Path(args.chrome)
            if args.chrome
            else Path(args.trace).with_suffix(".chrome.json")
        )
        write_chrome_trace(records, target)
        print(f"\nchrome trace ({len(records)} records) written to {target}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Handle ``repro profile``: fit eq. 3 for one subtask."""
    from repro.bench.app import aaw_task
    from repro.bench.profiler import profile_subtask

    baseline = _baseline_from_args(args)
    task = aaw_task(noise_sigma=baseline.noise_sigma)
    result = profile_subtask(
        task.subtask(args.subtask), repetitions=args.repetitions,
        seed=baseline.seed,
    )
    model = result.model
    rows = [[k, v] for k, v in model.coefficients().items()]
    rows.append(["R^2", model.r_squared])
    rows.append(["samples", model.n_samples])
    print(
        format_table(
            ["coefficient", "value"],
            rows,
            title=f"eq. 3 fit for subtask {args.subtask} ({model.subtask_name})",
        )
    )
    return 0


def cmd_patterns(args: argparse.Namespace) -> int:
    """Handle ``repro patterns``: print the Figure 8 series."""
    from repro.experiments.figures import fig8_workload_patterns

    baseline = _baseline_from_args(args)
    print(
        fig8_workload_patterns(
            max_workload_units=args.max_units,
            n_periods=baseline.n_periods,
            baseline=baseline,
        ).render()
    )
    return 0


def cmd_capacity(args: argparse.Namespace) -> int:
    """Handle ``repro capacity``: the offline capacity plan."""
    from repro.experiments.capacity import plan_capacity
    from repro.experiments.estimator_cache import get_estimator

    baseline = _baseline_from_args(args)
    estimator = get_estimator(baseline)
    grid = tuple(
        sorted(float(u) * 500.0 for u in (args.units or (2, 5, 10, 20, 30, 35)))
    )
    plan = plan_capacity(
        estimator,
        grid,
        n_processors=baseline.n_nodes,
        utilization=args.utilization,
        slack_fraction=baseline.slack_fraction,
    )
    print(plan.render())
    saturation = plan.saturation_tracks()
    if saturation is not None:
        print(f"\nsaturation: infeasible from {saturation:.0f} tracks/period")
    else:
        print("\nall planned workloads are feasible")
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    """Handle ``repro slo``: evaluate one run against its SLO rules."""
    if args.list:
        rules = _slo_rules_from_args(args)
        rows = [
            [
                rule.name,
                rule.signal,
                rule.objective,
                f"{rule.windows[0]:g}/{rule.windows[1]:g}",
                rule.burn_rate_threshold,
                rule.description,
            ]
            for rule in rules
        ]
        print(
            format_table(
                ["rule", "signal", "objective", "windows (s)",
                 "burn", "description"],
                rows,
                title="SLO rules",
            )
        )
        return 0

    _, result, _, _ = _run_observed(args)
    report = result.slo
    if report is None:  # pragma: no cover - _run_observed always arms rules
        raise ReproError("the run produced no SLO report")
    print(report.render())
    if args.json:
        import json as _json
        from pathlib import Path

        target = Path(args.json)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            _json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"SLO report written to {target}")
    return report.exit_code if args.check else 0


def _cmd_report_health(args: argparse.Namespace) -> int:
    """``repro report --health``: the self-contained HTML health report."""
    from repro.telemetry.report import render_report

    config, result, _, profiler = _run_observed(args)
    baseline = config.baseline
    meta = {
        "policy": config.policy,
        "pattern": config.pattern,
        "max_units": config.max_workload_units,
        "periods": baseline.n_periods,
        "nodes": baseline.n_nodes,
        "seed": baseline.seed,
        "scenario": config.chaos_scenario or "-",
        "hardened": config.hardened,
    }
    calibration = None
    if result.forecasts is not None:
        forecasts = result.forecasts
        calibration = {
            "n": forecasts.n,
            "mape": forecasts.mape,
            "mean_error_s": forecasts.mean_error_s,
            "pessimism_rate": forecasts.pessimism_rate,
            "missed_deadline_ratio": forecasts.missed_deadline_ratio,
        }
    rollup = None
    if getattr(args, "rollup", None):
        from repro.telemetry.rollup import CampaignRollup

        rollup = CampaignRollup.load(args.rollup).to_dict()
    html = render_report(
        meta=meta,
        metrics=result.metrics.as_dict(),
        slo=result.slo.as_dict() if result.slo is not None else None,
        profile=profiler.summary(deterministic=not args.wall),
        calibration=calibration,
        scorecard=(
            result.scorecard.as_dict() if result.scorecard is not None else None
        ),
        rollup=rollup,
    )
    if args.out:
        from pathlib import Path

        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(html, encoding="utf-8")
        print(f"health report written to {target}")
    else:
        print(html, end="")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Handle ``repro report``: Markdown evaluation or HTML health view."""
    if args.health:
        return _cmd_report_health(args)
    from repro.experiments.paper_report import generate_report

    baseline = _baseline_from_args(args)
    report = generate_report(
        baseline=baseline,
        units=_units_from_args(args),
        include_tables=not args.skip_tables,
        include_figures=not args.skip_figures,
        include_validation=not args.skip_validation,
    )
    if args.out:
        path = report.write(args.out)
        print(f"report ({len(report.sections)} sections, "
              f"{report.elapsed_s:.1f} s) written to {path}")
    else:
        print(report.to_markdown())
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Handle ``repro campaign``: a full grid, optionally in parallel."""
    from repro.experiments.campaign import CampaignSpec, run_campaign

    scenarios: tuple[str | None, ...] = (None,)
    if args.scenarios:
        scenarios = tuple(
            None if name == "off" else name for name in args.scenarios
        )
    hardened: tuple[bool, ...] = {
        "off": (False,), "on": (True,), "both": (False, True),
    }[args.hardened_axis]
    slo_rules = None
    if args.slo:
        if args.slo == "default":
            from repro.telemetry.slo import DEFAULT_SLO_RULES

            slo_rules = DEFAULT_SLO_RULES
        else:
            from pathlib import Path

            from repro.telemetry.slo import load_slo_rules

            slo_rules = load_slo_rules(Path(args.slo))
    spec = CampaignSpec(
        policies=tuple(args.policies),
        patterns=tuple(args.patterns),
        units=_units_from_args(args),
        n_seeds=args.seeds,
        baseline=_baseline_from_args(args),
        scenarios=scenarios,
        hardened=hardened,
        slo=slo_rules,
    )
    result = run_campaign(
        spec,
        n_jobs=_jobs_from_args(args),
        cache_dir=_cache_dir_from_args(args),
        progress=None if args.quiet else print,
        journal=args.journal,
        resume=args.resume,
        retries=args.retries,
    )
    if result.failed:
        for failure in result.failed:
            print(
                f"FAILED cell {failure.index} ({failure.tag}): "
                f"{failure.error} [{failure.attempts} attempt(s)]",
                file=sys.stderr,
            )
    print(result.render(metric=args.metric))
    if args.json:
        target = result.write_json(args.json)
        print(f"campaign written to {target}")
    if args.rollup:
        from repro.experiments.campaign import rollup_campaign

        target = rollup_campaign(result).write(args.rollup)
        print(f"campaign rollup written to {target}")
    return 1 if result.failed else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Handle ``repro chaos``: one run under a fault scenario."""
    from repro.chaos import SCENARIOS, run_chaos_experiment, scenario_names
    from repro.experiments.estimator_cache import get_estimator

    if args.list:
        rows = [
            [name, len(SCENARIOS[name].faults), SCENARIOS[name].description]
            for name in scenario_names()
        ]
        print(format_table(["scenario", "faults", "description"], rows,
                           title="chaos scenarios"))
        return 0

    baseline = _baseline_from_args(args)
    estimator = get_estimator(baseline, cache_dir=_cache_dir_from_args(args))
    modes = (True, False) if args.compare else (args.hardened,)
    scorecards = {}
    crashed: dict[str, str] = {}
    for hardened in modes:
        label = "hardened" if hardened else "unhardened"
        try:
            result = run_chaos_experiment(
                scenario=args.scenario,
                policy=args.policy,
                pattern=args.pattern,
                max_workload_units=args.max_units,
                baseline=baseline,
                hardened=hardened,
                estimator=estimator,
                failover=args.failover,
            )
        except ReproError as exc:
            if not args.compare:
                raise
            # In compare mode, a controller crash on faulty input IS
            # the unhardened result — show it instead of aborting.
            crashed[label] = f"{type(exc).__name__}: {exc}"
            continue
        scorecards[label] = (result.scorecard, result.metrics)

    def fmt(value):
        return "-" if value is None else value

    rows = []
    for label, (scorecard, metrics) in scorecards.items():
        data = scorecard.as_dict()
        rows.append(
            [
                label,
                data["faults_injected"],
                data["availability"],
                fmt(data["mttr_s"]),
                data["miss_window_ratio"],
                data["actions_per_fault"],
                metrics.missed_deadline_ratio,
            ]
        )
    for label in crashed:
        rows.append([label, "-", "CRASHED", "-", "-", "-", "-"])
    print(
        format_table(
            ["rm", "faults", "availability", "mttr (s)",
             "miss-window ratio", "actions/fault", "missed ratio"],
            rows,
            title=f"chaos: {args.scenario}, {args.policy}, {args.pattern}, "
            f"{args.max_units:g} units",
        )
    )
    for label, (scorecard, _) in scorecards.items():
        if scorecard.rm_crashes:
            latency = (
                "-"
                if scorecard.takeover_latency_s is None
                else f"{scorecard.takeover_latency_s:.3f} s"
            )
            print(
                f"{label}: {scorecard.rm_crashes} controller crash(es), "
                f"takeover latency {latency}, "
                f"{scorecard.missed_rm_cycles} missed monitoring cycle(s)"
            )
    if args.json:
        import json as _json
        from pathlib import Path

        target = Path(args.json)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            label: scorecard.as_dict()
            for label, (scorecard, _) in scorecards.items()
        }
        for label, error in crashed.items():
            payload[label] = {"crashed": True, "error": error}
        payload["scenario"] = args.scenario
        payload["policy"] = args.policy
        target.write_text(_json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"scorecard written to {target}")
    return 0


def _changed_python_files(ref: str) -> list[str]:
    """Tracked-changed plus untracked ``.py`` files vs. ``ref``."""
    import subprocess

    out: list[str] = []
    for cmd in (
        ["git", "diff", "--name-only", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, check=False
        )
        if proc.returncode != 0:
            raise SystemExit(
                f"repro lint --changed: {' '.join(cmd)} failed: "
                f"{proc.stderr.strip()}"
            )
        out.extend(
            line for line in proc.stdout.splitlines()
            if line.endswith(".py")
        )
    import os

    return sorted({path for path in out if os.path.exists(path)})


def cmd_lint(args: argparse.Namespace) -> int:
    """Handle ``repro lint``: run the static-analysis suite."""
    from pathlib import Path

    from repro.analysis import (
        lint_paths,
        render_json,
        render_rules,
        render_sarif,
        render_text,
    )

    if args.list_rules:
        print(render_rules())
        return 0
    project_rules = True
    if args.changed is not None:
        paths = _changed_python_files(args.changed)
        if not paths:
            print("clean: 0 changed files")
            return 0
        # A partial file set cannot support whole-project conclusions
        # (reachability, facade drift) - CI's full run covers those.
        project_rules = False
    else:
        paths = args.paths or ["src/repro"]
    violations, n_files = lint_paths(
        paths,
        contract_path=Path(args.contract) if args.contract else None,
        select=args.select,
        cache_path=None if args.no_cache else args.cache,
        project_rules=project_rules,
    )
    if args.format == "json":
        print(render_json(violations, n_files))
    elif args.format == "sarif":
        print(render_sarif(violations, n_files))
    else:
        print(render_text(violations, n_files))
    return 1 if violations else 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Handle ``repro validate``: paper-claims checks (exit 1 on FAIL)."""
    from repro.experiments.validation import render_checks, validate_reproduction

    baseline = _baseline_from_args(args)
    checks = validate_reproduction(baseline=baseline)
    print(render_checks(checks))
    return 0 if all(check.passed for check in checks) else 1


# -- parser ---------------------------------------------------------------------


def _policy_name(value: str) -> str:
    """Argparse type for ``--policy``: validate against the registry.

    Unknown names fail at parse time with the full registry in the
    message, instead of surfacing as an :class:`AllocationError` from
    deep inside an experiment run.  The import is lazy so ``--help``
    and unrelated subcommands stay fast.
    """
    from repro.core.allocation import registered_policies

    if value not in registered_policies():
        raise argparse.ArgumentTypeError(
            f"unknown policy {value!r}; registered: "
            f"{', '.join(registered_policies())}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Predictive adaptive resource management "
        "(Ravindran & Hegazy 2001) - reproduction toolkit",
    )
    parser.add_argument("--periods", type=int, help="periods per experiment")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--nodes", type=int, help="number of processors")
    parser.add_argument(
        "--network-mode", choices=("shared", "switched"), help="medium model"
    )
    parser.add_argument(
        "--jobs", type=int,
        help="worker processes for sweeps/replications/campaigns "
        "(1 = serial, 0 = all CPUs)",
    )
    parser.add_argument(
        "--cache-dir",
        help="directory for the disk-backed estimator cache "
        "(fits are reused across invocations)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("number", type=int, choices=(1, 2, 3))
    p_table.set_defaults(func=cmd_table)

    p_figure = sub.add_parser("figure", help="regenerate a paper figure")
    p_figure.add_argument("number", type=int, choices=(8, 9, 10, 11, 12, 13))
    p_figure.add_argument(
        "--units", type=float, nargs="+", help="max-workload sweep points"
    )
    p_figure.add_argument("--csv", help="also write the series as CSV here")
    p_figure.set_defaults(func=cmd_figure)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--policy", type=_policy_name, default="predictive")
    p_run.add_argument("--pattern", default="triangular")
    p_run.add_argument("--max-units", type=float, default=20.0)
    p_run.add_argument("--tasks", type=int, default=1, help="number of tasks")
    p_run.add_argument("--seeds", type=int, default=1, help="replication seeds")
    p_run.add_argument("--json", help="write metrics JSON here")
    p_run.add_argument(
        "--telemetry-dir",
        help="stream a JSONL trace and metrics snapshots (JSON + "
        "Prometheus text) into this directory (single runs only)",
    )
    p_run.add_argument(
        "--checkpoint", type=float, metavar="SECONDS",
        help="arm periodic in-run snapshots at this sim-time interval "
        "(see repro.recovery; decisions are unchanged)",
    )
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="summarize/convert a telemetry JSONL trace"
    )
    p_trace.add_argument("trace", help="path to a trace.jsonl file")
    p_trace.add_argument(
        "--chrome",
        help="write the Chrome trace-event JSON here "
        "(default: <trace>.chrome.json next to the input)",
    )
    p_trace.add_argument(
        "--no-chrome", action="store_true",
        help="print the summary tables only, skip the Chrome export",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_profile = sub.add_parser("profile", help="profile one subtask, fit eq. 3")
    p_profile.add_argument("--subtask", type=int, default=3, choices=range(1, 6))
    p_profile.add_argument("--repetitions", type=int, default=2)
    p_profile.set_defaults(func=cmd_profile)

    p_patterns = sub.add_parser("patterns", help="print the Figure 8 series")
    p_patterns.add_argument("--max-units", type=float, default=20.0)
    p_patterns.set_defaults(func=cmd_patterns)

    p_validate = sub.add_parser("validate", help="check the paper's claims")
    p_validate.set_defaults(func=cmd_validate)

    p_campaign = sub.add_parser(
        "campaign", help="run a policy x pattern x workload x seed grid"
    )
    p_campaign.add_argument(
        "--policies", nargs="+", type=_policy_name,
        default=["predictive", "nonpredictive"],
    )
    p_campaign.add_argument("--patterns", nargs="+", default=["triangular"])
    p_campaign.add_argument(
        "--units", type=float, nargs="+", help="max-workload sweep points"
    )
    p_campaign.add_argument("--seeds", type=int, default=1, help="seeds per cell")
    p_campaign.add_argument(
        "--metric", default="combined", help="metric shown in the summary table"
    )
    p_campaign.add_argument("--json", help="write the full campaign JSON here")
    p_campaign.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress lines"
    )
    p_campaign.add_argument(
        "--scenarios", nargs="+", metavar="NAME",
        help="chaos-scenario axis ('off' = fault-free cell)",
    )
    p_campaign.add_argument(
        "--hardened-axis", choices=("off", "on", "both"), default="off",
        help="RM-hardening axis of the grid",
    )
    p_campaign.add_argument(
        "--slo", nargs="?", const="default", metavar="RULES.toml",
        help="evaluate SLO rules on every run (bare flag = the default "
        "rule set, or give a [[slo.rules]] TOML file)",
    )
    p_campaign.add_argument(
        "--rollup",
        help="write the order-independent campaign rollup JSON here",
    )
    p_campaign.add_argument(
        "--journal", metavar="PATH",
        help="crash-tolerant cell journal (JSONL): every finished cell "
        "is durably appended here as the campaign runs",
    )
    p_campaign.add_argument(
        "--resume", action="store_true",
        help="reload completed cells from --journal and run only the "
        "missing ones (merged result is byte-identical to an "
        "uninterrupted campaign)",
    )
    p_campaign.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="resubmit jobs whose worker process died up to N extra "
        "times; unrecoverable cells are recorded instead of aborting "
        "(exit code 1 if any remain)",
    )
    p_campaign.set_defaults(func=cmd_campaign)

    p_slo = sub.add_parser(
        "slo", help="run one experiment and evaluate it against SLO rules"
    )
    p_slo.add_argument("--policy", type=_policy_name, default="predictive")
    p_slo.add_argument("--pattern", default="triangular")
    p_slo.add_argument("--max-units", type=float, default=20.0)
    p_slo.add_argument(
        "--scenario", help="optional chaos scenario to run under"
    )
    p_slo.add_argument(
        "--hardened", action=argparse.BooleanOptionalAction, default=False,
        help="enable the RM hardening defenses for the run",
    )
    p_slo.add_argument(
        "--rules", metavar="RULES.toml",
        help="load rules from a [[slo.rules]] TOML file "
        "(default: the built-in rule set)",
    )
    p_slo.add_argument(
        "--check", action="store_true",
        help="CI gate: exit 1 when any SLO is breached, 0 otherwise",
    )
    p_slo.add_argument("--json", help="write the SLO report JSON here")
    p_slo.add_argument(
        "--list", action="store_true",
        help="print the effective rule set and exit (no run)",
    )
    p_slo.set_defaults(func=cmd_slo)

    p_chaos = sub.add_parser(
        "chaos", help="run one experiment under a fault-injection scenario"
    )
    p_chaos.add_argument("--scenario", default="crashes")
    p_chaos.add_argument("--policy", type=_policy_name, default="predictive")
    p_chaos.add_argument("--pattern", default="triangular")
    p_chaos.add_argument("--max-units", type=float, default=20.0)
    p_chaos.add_argument(
        "--hardened", action=argparse.BooleanOptionalAction, default=True,
        help="enable the RM hardening defenses (--no-hardened disables)",
    )
    p_chaos.add_argument(
        "--compare", action="store_true",
        help="run hardened and unhardened back to back",
    )
    p_chaos.add_argument(
        "--failover", action="store_true",
        help="arm the standby controller (takes over after an rm_crash "
        "fault kills the primary; see repro.recovery)",
    )
    p_chaos.add_argument("--json", help="write the scorecard JSON here")
    p_chaos.add_argument(
        "--list", action="store_true", help="print the scenario catalogue"
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_lint = sub.add_parser(
        "lint", help="run the static-analysis suite over a source tree"
    )
    p_lint.add_argument(
        "paths", nargs="*", help="files/directories to lint (default: src/repro)"
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format",
    )
    p_lint.add_argument(
        "--select", nargs="+", metavar="RULE-ID",
        help="report only these rule ids (e.g. DET-TIME CONC-GLOBAL-MUT)",
    )
    p_lint.add_argument(
        "--contract",
        help="layering contract TOML (default: the packaged layering.toml)",
    )
    p_lint.add_argument(
        "--cache", metavar="PATH", default=".repro-lint-cache.json",
        help="persistent result cache for incremental runs "
        "(default: .repro-lint-cache.json)",
    )
    p_lint.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result cache",
    )
    p_lint.add_argument(
        "--changed", nargs="?", const="HEAD", metavar="GIT-REF",
        help="lint only files changed vs. GIT-REF (default HEAD); "
        "skips the project-wide passes",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_capacity = sub.add_parser(
        "capacity", help="offline capacity plan from the fitted models"
    )
    p_capacity.add_argument(
        "--units", type=float, nargs="+",
        help="workload points (1 unit = 500 tracks)",
    )
    p_capacity.add_argument(
        "--utilization", type=float, default=0.3,
        help="assumed background utilization",
    )
    p_capacity.set_defaults(func=cmd_capacity)

    p_report = sub.add_parser(
        "report",
        help="regenerate the evaluation (Markdown) or, with --health, "
        "render one run's HTML health report",
    )
    p_report.add_argument("--out", help="write the report here (else stdout)")
    p_report.add_argument(
        "--units", type=float, nargs="+", help="max-workload sweep points"
    )
    p_report.add_argument("--skip-tables", action="store_true")
    p_report.add_argument("--skip-figures", action="store_true")
    p_report.add_argument("--skip-validation", action="store_true")
    p_report.add_argument(
        "--health", action="store_true",
        help="render a self-contained HTML health report for one run "
        "(metrics, SLO verdicts with burn-rate sparklines, profiler "
        "breakdown, forecast calibration) instead of the Markdown "
        "evaluation",
    )
    p_report.add_argument("--policy", type=_policy_name, default="predictive")
    p_report.add_argument("--pattern", default="triangular")
    p_report.add_argument("--max-units", type=float, default=20.0)
    p_report.add_argument(
        "--scenario", help="optional chaos scenario (health mode)"
    )
    p_report.add_argument(
        "--hardened", action=argparse.BooleanOptionalAction, default=False,
        help="enable the RM hardening defenses (health mode)",
    )
    p_report.add_argument(
        "--rules", metavar="RULES.toml",
        help="SLO rules TOML for the health report "
        "(default: the built-in rule set)",
    )
    p_report.add_argument(
        "--wall", action="store_true",
        help="include host wall-clock profiler times in the health "
        "report (makes the HTML non-reproducible)",
    )
    p_report.add_argument(
        "--rollup", metavar="ROLLUP.json",
        help="embed a campaign rollup (from 'repro campaign --rollup') "
        "in the health report",
    )
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
