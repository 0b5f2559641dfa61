"""Per-layer metrics of one traced round, and what each should predict.

:func:`layer_metrics` turns a :class:`~perfbench.tracing.LayerTracer`
round (calls, inclusive and self seconds per boundary) plus the counters
the program already exposes on each finished world into the ``per_layer``
metrics of ``BENCHMARK.json``.  Every value is per round (one serial pass
over the workload's experiments).  :data:`PREDICTIONS` records, before
measuring, which end-to-end metric each layer should move and on which
workload it does the most and the least work; :func:`layer_shares`
gives the measured share of round time beside it.
"""

from __future__ import annotations

SELECTION = (
    "System.least_utilized",
    "System.processors_below",
    "System.mean_utilization",
    "System.utilizations",
)
ALLOCATION = (
    "CandidatePolicyAdapter.allocate",
    "PredictivePolicy.replicate",
    "NonPredictivePolicy.replicate",
)
FORECASTS = (
    "TimingEstimator.eex_seconds",
    "TimingEstimator.eex_seconds_many",
    "TimingEstimator.ecd_seconds",
)

#: Boundaries whose self time belongs to each layer.
LAYER_BOUNDARIES = {
    "sim": ("Engine.run_until",),
    "cluster_reads": ("Processor.utilization", *SELECTION),
    "cluster_writes": ("Processor.submit", "Network.send"),
    "core": ("AdaptiveResourceManager.step", "RuntimeMonitor.classify", *ALLOCATION),
    "regression": FORECASTS,
    "recovery": ("Checkpointer.take", "AdaptiveResourceManager.state_dict"),
    "telemetry": ("SloEngine.evaluate", "TelemetryHub.on_*"),
    "experiments": ("build_world", "finalize_world", "compute_metrics", "RunHistoryIndex.update"),
}

#: layer -> (should move, most work on, least work on), written before
#: the first traced run.  ``share`` is the share of host time the sizing
#: profile (cProfile on a copy of the repository) gave, where it gave one.
PREDICTIONS = {
    "sim": {
        "moves": "periods_per_s",
        "most": ["paper6", "scale512_nonpred"],
        "least": ["scale512_pred"],
        "share": {"scale512_pred": 0.02, "scale512_nonpred": 0.24},
    },
    "cluster_reads": {
        "moves": "periods_per_s, run_s",
        "most": ["scale512_pred"],
        "least": ["paper6"],
        "share": {"scale512_pred": 0.48, "scale512_nonpred": 0.13},
    },
    "cluster_writes": {
        "moves": "periods_per_s",
        "most": ["scale512_nonpred"],
        "least": ["scale512_pred"],
        "share": {"scale512_nonpred": 0.34},
    },
    "runtime": {"moves": "none: simulated statistics stay identical", "most": [], "least": []},
    "core": {
        "moves": "periods_per_s",
        "most": ["scale512_pred"],
        "least": ["paper6"],
        "share": {"paper6": 0.05, "scale512_pred": 0.09},
    },
    "regression": {
        "moves": "periods_per_s",
        "most": ["scale512_pred"],
        "least": ["scale512_nonpred"],
    },
    "recovery": {
        "moves": "periods_per_s, peak_rss_mb",
        "most": ["ops6"],
        "least": ["paper6", "scale512_pred", "scale512_nonpred"],
        "share": {"ops6": 0.25},  # pickle.dumps at 500 periods, not 250
    },
    "chaos": {"moves": "none: the count proves the faults ran", "most": ["ops6"], "least": []},
    "telemetry": {
        "moves": "periods_per_s",
        "most": ["ops6"],
        "least": ["paper6", "scale512_pred", "scale512_nonpred"],
    },
    "experiments": {"moves": "run_s", "most": ["paper6"], "least": ["scale512_pred"]},
    "bench": {"moves": "setup_s", "most": [], "least": []},
}


def _sum(totals: dict[str, tuple], names, column: int) -> float:
    value = 0.0
    for name in names:
        if name.endswith(".on_*"):
            prefix = name[:-1]
            value += sum(v[column] for k, v in totals.items() if k.startswith(prefix))
        else:
            value += totals.get(name, (0, 0.0, 0.0))[column]
    return value


def calls(totals, *names) -> int:
    """Total calls of the named boundaries."""
    return int(_sum(totals, names, 0))


def inclusive_s(totals, *names) -> float:
    """Total inclusive seconds of the named boundaries."""
    return _sum(totals, names, 1)


def self_s(totals, *names) -> float:
    """Total self seconds of the named boundaries."""
    return _sum(totals, names, 2)


def world_counters(outputs) -> dict[str, float]:
    """Counters read from the finished worlds of one round."""
    c = dict.fromkeys(
        (
            "events",
            "heap_pops",
            "index_meter_reads",
            "delivered",
            "released",
            "completed",
            "rm_cycles",
            "added",
            "removed",
            "faults",
        ),
        0,
    )
    for out in outputs:
        world, result = out.world, out.result
        system = world.system
        c["events"] += system.engine.executed_count
        index = getattr(system, "utilization_index", None)
        if index is not None:
            c["heap_pops"] += index.stats.heap_pops
            c["index_meter_reads"] += index.stats.meter_reads
        c["delivered"] += system.network.delivered_count
        records = world.executor.records
        c["released"] += len(records)
        c["completed"] += sum(1 for r in records if r.completed)
        history = world.controller.history
        c["rm_cycles"] += len(history)
        for event in history:
            c["added"] += sum(len(o.added_processors) for o in event.outcomes)
            c["removed"] += len(event.shutdowns)
        if result.scorecard is not None:
            c["faults"] += result.scorecard.faults_injected
    return c


def layer_metrics(totals, outputs, snapshot_bytes: int, round_wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced round (counts are exact).

    Self times are in seconds, except for the layers that do no work
    outside ``ops6`` (snapshots, controller state, SLO evaluation): those
    are given as a share of the round's wall time, because their time is
    exactly zero on every other workload.
    """
    c = world_counters(outputs)
    run_until = inclusive_s(totals, "Engine.run_until")
    dispatch = self_s(totals, "Engine.run_until")
    sent = calls(totals, "Network.send")
    return {
        "sim.events": c["events"],
        "sim.run_until_s": run_until,
        "sim.dispatch_self_s": dispatch,
        "sim.host_us_per_event": run_until / c["events"] * 1e6 if c["events"] else 0.0,
        "cluster.util_reads": calls(totals, "UtilizationMeter.utilization"),
        "cluster.util_read_self_s": self_s(totals, "Processor.utilization"),
        "cluster.select_calls": calls(totals, *SELECTION),
        "cluster.select_self_s": self_s(totals, *SELECTION),
        "cluster.index_heap_pops": c["heap_pops"],
        "cluster.index_meter_reads": c["index_meter_reads"],
        "cluster.jobs_submitted": calls(totals, "Processor.submit"),
        "cluster.submit_self_s": self_s(totals, "Processor.submit"),
        "cluster.messages_sent": sent,
        "cluster.send_self_s": self_s(totals, "Network.send"),
        "cluster.delivered_ratio": c["delivered"] / sent if sent else 0.0,
        "runtime.periods_released": c["released"],
        "runtime.periods_completed": c["completed"],
        "runtime.completed_ratio": c["completed"] / c["released"] if c["released"] else 0.0,
        "core.rm_cycles": c["rm_cycles"],
        "core.step_s": inclusive_s(totals, "AdaptiveResourceManager.step"),
        "core.step_self_s": self_s(totals, "AdaptiveResourceManager.step"),
        "core.monitor_self_s": self_s(totals, "RuntimeMonitor.classify"),
        "core.allocate_calls": calls(totals, "CandidatePolicyAdapter.allocate"),
        "core.allocate_self_s": self_s(totals, *ALLOCATION),
        "core.replicas_added": c["added"],
        "core.replicas_removed": c["removed"],
        "regression.forecasts": calls(totals, *FORECASTS),
        "regression.forecast_self_s": self_s(totals, *FORECASTS),
        "recovery.snapshots": calls(totals, "Checkpointer.take"),
        "recovery.snapshot_share": self_s(totals, "Checkpointer.take") / round_wall_s,
        "recovery.snapshot_bytes": snapshot_bytes,
        "recovery.state_dicts": calls(totals, "AdaptiveResourceManager.state_dict"),
        "recovery.state_dict_share": self_s(totals, "AdaptiveResourceManager.state_dict")
        / round_wall_s,
        "chaos.faults_injected": c["faults"],
        "telemetry.hub_calls": calls(totals, "TelemetryHub.on_*"),
        "telemetry.slo_evals": calls(totals, "SloEngine.evaluate"),
        "telemetry.slo_eval_share": self_s(totals, "SloEngine.evaluate") / round_wall_s,
        "experiments.build_world_s": inclusive_s(totals, "build_world"),
        "experiments.finalize_self_s": self_s(
            totals, "finalize_world", "compute_metrics", "RunHistoryIndex.update"
        ),
    }


def layer_shares(totals, round_wall_s: float) -> dict[str, float]:
    """Each layer's self time as a share of the traced round's wall time."""
    return {
        layer: self_s(totals, *names) / round_wall_s
        for layer, names in LAYER_BOUNDARIES.items()
    }
