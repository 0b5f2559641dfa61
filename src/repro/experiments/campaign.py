"""Experiment campaigns: a policy × pattern × workload × seed grid.

A :class:`CampaignSpec` names a whole study — every
:class:`~repro.experiments.config.ExperimentConfig` in the cross
product of its axes, replicated under ``n_seeds`` seed offsets — and
:func:`run_campaign` executes it in one shot, serially or across the
:mod:`repro.parallel` process pool, with progress reporting and
per-job wall-clock/peak-RSS accounting.

The grid is enumerated in a fixed order (policy, then pattern, then
workload, then seed offset) and results keep that order, so a campaign
is reproducible row-for-row regardless of ``n_jobs``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import ConfigurationError
from repro.experiments.config import (
    DEFAULT_SWEEP_UNITS,
    BaselineConfig,
    ExperimentConfig,
)
from repro.experiments.export import SCHEMA_VERSION
from repro.experiments.metrics import ExperimentMetrics
from repro.experiments.replication import MetricSummary, summarize
from repro.experiments.report import format_table
from repro.telemetry.rollup import CampaignRollup
from repro.telemetry.slo import SloRule

#: Progress sink: receives one human-readable line per finished job.
Progress = Callable[[str], None]


@dataclass(frozen=True)
class CampaignSpec:
    """The axes of one campaign grid.

    ``scenarios`` and ``hardened`` extend the grid with the chaos axes:
    every cell is replicated per named fault scenario (``None`` =
    fault-free) and per hardening setting.  The defaults keep both axes
    trivial, so pre-chaos campaigns enumerate — and tag — identically.

    ``slo`` arms every cell with the given
    :class:`~repro.telemetry.slo.SloRule` tuple; each row then carries
    its SLO verdict and the campaign rollup aggregates pass/fail counts.
    """

    policies: tuple[str, ...] = ("predictive", "nonpredictive")
    patterns: tuple[str, ...] = ("triangular",)
    units: tuple[float, ...] = DEFAULT_SWEEP_UNITS
    n_seeds: int = 1
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    repetitions: int = 2
    scenarios: tuple[str | None, ...] = (None,)
    hardened: tuple[bool, ...] = (False,)
    slo: "tuple[SloRule, ...] | None" = None

    def __post_init__(self) -> None:
        if not self.policies or not self.patterns or not self.units:
            raise ConfigurationError("campaign axes must be non-empty")
        if not self.scenarios or not self.hardened:
            raise ConfigurationError("campaign axes must be non-empty")
        if self.n_seeds < 1:
            raise ConfigurationError(f"n_seeds must be >= 1, got {self.n_seeds}")

    @property
    def n_runs(self) -> int:
        """Total experiment runs in the grid."""
        return (
            len(self.policies)
            * len(self.patterns)
            * len(self.units)
            * len(self.scenarios)
            * len(self.hardened)
            * self.n_seeds
        )

    def enumerate(self) -> list[tuple[ExperimentConfig, int, str]]:
        """The grid in canonical order: ``(config, seed_offset, tag)``."""
        cells = []
        for policy in self.policies:
            for pattern in self.patterns:
                for units in self.units:
                    for scenario in self.scenarios:
                        for hard in self.hardened:
                            config = ExperimentConfig(
                                policy=policy,
                                pattern=pattern,
                                max_workload_units=units,
                                baseline=self.baseline,
                                chaos_scenario=scenario,
                                hardened=hard,
                                slo=self.slo,
                            )
                            tag = f"{policy}/{pattern}/u{units:g}"
                            if scenario is not None:
                                tag += f"/{scenario}"
                            if hard:
                                tag += "/hardened"
                            for offset in range(self.n_seeds):
                                cells.append((config, offset, f"{tag}/s{offset}"))
        return cells


@dataclass(frozen=True)
class CampaignRow:
    """One finished grid cell with its execution accounting."""

    policy: str
    pattern: str
    max_workload_units: float
    seed_offset: int
    metrics: ExperimentMetrics
    wall_clock_s: float
    max_rss_kb: int
    pid: int
    chaos_scenario: str | None = None
    hardened: bool = False
    decision_digest: str = ""
    #: The cell's stable grid tag (``policy/pattern/u<units>/.../s<k>``).
    tag: str = ""
    #: ``SloReport.as_dict()`` when the campaign armed SLO rules.
    slo: dict | None = None

    def as_dict(self) -> dict:
        """JSON-friendly representation (used by ``write_json``)."""
        return {
            "policy": self.policy,
            "pattern": self.pattern,
            "max_workload_units": self.max_workload_units,
            "seed_offset": self.seed_offset,
            "chaos_scenario": self.chaos_scenario,
            "hardened": self.hardened,
            "tag": self.tag,
            "metrics": self.metrics.as_dict(),
            "slo": self.slo,
            "decision_digest": self.decision_digest,
            "wall_clock_s": self.wall_clock_s,
            "max_rss_kb": self.max_rss_kb,
            "pid": self.pid,
        }

    def deterministic_dict(self) -> dict:
        """:meth:`as_dict` minus host-side accounting.

        Everything left is a pure function of the run's configuration
        and seed — wall clock, peak RSS and worker PID vary between
        hosts and worker counts, so they are excluded.  Serializing
        these dicts is how the pooled-vs-serial equality gate compares
        whole campaigns byte for byte.
        """
        row = self.as_dict()
        for key in ("wall_clock_s", "max_rss_kb", "pid"):
            del row[key]
        return row


@dataclass(frozen=True)
class CampaignFailure:
    """One grid cell that produced no row (crash-tolerant mode)."""

    index: int
    tag: str
    error: str
    attempts: int

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "index": self.index,
            "tag": self.tag,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class CampaignResult:
    """Every row of a finished campaign plus run-level accounting."""

    spec: CampaignSpec
    rows: tuple[CampaignRow, ...]
    n_jobs: int
    elapsed_s: float
    #: Cells that died unrecoverably (``retries`` mode); empty on the
    #: historical any-failure-aborts path.
    failed: tuple[CampaignFailure, ...] = ()

    def deterministic_json(self) -> str:
        """Canonical JSON of every row's deterministic content.

        Byte-identical across serial and pooled execution of the same
        spec and seeds (the pooled-campaign equality gate compares
        exactly this string).
        """
        return json.dumps(
            [row.deterministic_dict() for row in self.rows],
            indent=2,
            sort_keys=True,
        )

    def series(
        self,
        policy: str,
        pattern: str,
        metric: str,
        scenario: "str | None | type[Ellipsis]" = Ellipsis,
        hardened: "bool | type[Ellipsis]" = Ellipsis,
    ) -> dict[float, MetricSummary]:
        """Per-workload summaries of one metric along one (policy, pattern).

        ``scenario``/``hardened`` filter along the chaos axes;
        the ``Ellipsis`` default aggregates over them (which, on a
        campaign without chaos axes, is the pre-chaos behavior).
        """
        by_units: dict[float, list[float]] = {}
        for row in self.rows:
            if row.policy != policy or row.pattern != pattern:
                continue
            if scenario is not Ellipsis and row.chaos_scenario != scenario:
                continue
            if hardened is not Ellipsis and row.hardened != hardened:
                continue
            by_units.setdefault(row.max_workload_units, []).append(
                row.metrics.as_dict()[metric]
            )
        if not by_units:
            raise ConfigurationError(
                f"no campaign rows for policy={policy!r}, pattern={pattern!r}"
            )
        return {
            units: summarize(metric, values)
            for units, values in sorted(by_units.items())
        }

    def render(self, metric: str = "combined") -> str:
        """A compact per-cell table of one metric (mean over seeds)."""
        chaos_axes = self.spec.scenarios != (None,) or self.spec.hardened != (
            False,
        )
        rows: list[list] = []
        for policy in self.spec.policies:
            for pattern in self.spec.patterns:
                if not chaos_axes:
                    for units, summary in self.series(
                        policy, pattern, metric
                    ).items():
                        rows.append(
                            [policy, pattern, units, summary.mean, summary.std]
                        )
                    continue
                for scenario in self.spec.scenarios:
                    for hard in self.spec.hardened:
                        for units, summary in self.series(
                            policy,
                            pattern,
                            metric,
                            scenario=scenario,
                            hardened=hard,
                        ).items():
                            rows.append(
                                [
                                    policy,
                                    pattern,
                                    scenario if scenario is not None else "-",
                                    "yes" if hard else "no",
                                    units,
                                    summary.mean,
                                    summary.std,
                                ]
                            )
        headers = (
            ["policy", "pattern", "scenario", "hardened", "max units"]
            if chaos_axes
            else ["policy", "pattern", "max units"]
        )
        return format_table(
            headers + [f"{metric} mean", "sd"],
            rows,
            title=f"campaign: {self.spec.n_runs} runs, "
            f"{self.n_jobs} worker(s), {self.elapsed_s:.1f} s",
        )

    def to_dict(self) -> dict:
        """JSON-friendly representation of the whole campaign."""
        return {
            "schema_version": SCHEMA_VERSION,
            "policies": list(self.spec.policies),
            "patterns": list(self.spec.patterns),
            "units": list(self.spec.units),
            "scenarios": list(self.spec.scenarios),
            "hardened": list(self.spec.hardened),
            "n_seeds": self.spec.n_seeds,
            "n_runs": self.spec.n_runs,
            "n_jobs": self.n_jobs,
            "elapsed_s": self.elapsed_s,
            "total_job_wall_clock_s": sum(r.wall_clock_s for r in self.rows),
            "max_rss_kb": max((r.max_rss_kb for r in self.rows), default=0),
            "rows": [row.as_dict() for row in self.rows],
            "failed": [failure.as_dict() for failure in self.failed],
        }

    def write_json(self, path: str | Path) -> Path:
        """Persist :meth:`to_dict` as pretty-printed JSON (atomically)."""
        from repro.experiments.export import atomic_write_json

        return atomic_write_json(Path(path), self.to_dict())


def _row_from_job(job_result) -> CampaignRow:
    """Fold one :class:`~repro.parallel.jobs.JobResult` into a row."""
    config = job_result.spec.config
    result = job_result.result
    return CampaignRow(
        policy=config.policy,
        pattern=config.pattern,
        max_workload_units=config.max_workload_units,
        seed_offset=job_result.spec.seed_offset,
        metrics=result.metrics,
        wall_clock_s=job_result.wall_clock_s,
        max_rss_kb=job_result.max_rss_kb,
        pid=job_result.pid,
        chaos_scenario=config.chaos_scenario,
        hardened=config.hardened,
        decision_digest=result.decision_digest,
        tag=job_result.spec.tag,
        slo=result.slo.as_dict() if result.slo is not None else None,
    )


def run_campaign(
    spec: CampaignSpec,
    n_jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: Progress | None = None,
    journal: str | Path | None = None,
    resume: bool = False,
    retries: int = 0,
) -> CampaignResult:
    """Execute every cell of the grid; results keep enumeration order.

    Every cell goes through :func:`repro.parallel.run_configs_parallel`:
    the parent fits the estimator once, ``n_jobs=1`` runs in-process and
    larger values fan out over worker processes.  Deterministic row
    content is byte-identical whatever ``n_jobs`` is —
    :meth:`CampaignResult.deterministic_json` pins it.  ``progress``
    (e.g. ``print``) receives one line per finished run, in completion
    order.

    Crash tolerance (:mod:`repro.experiments.journal`): with ``journal``
    set, every completed cell is durably appended to that JSONL file as
    it finishes; ``resume=True`` reloads a prior journal for the same
    spec, re-runs only the missing cells, and merges —
    ``deterministic_json()`` of the merged result is byte-identical to
    an uninterrupted campaign.  ``retries > 0`` additionally survives
    dying worker *processes* (bounded resubmission; unrecoverable cells
    land in :attr:`CampaignResult.failed` instead of aborting).
    """
    from repro.experiments.journal import CampaignJournal
    from repro.parallel import JobFailure, effective_n_jobs, run_configs_parallel

    if resume and journal is None:
        raise ConfigurationError("resume=True requires a journal path")
    n_jobs = effective_n_jobs(n_jobs)
    cells = spec.enumerate()
    done: dict[int, CampaignRow] = {}
    journal_obj: CampaignJournal | None = None
    if journal is not None:
        journal_obj = CampaignJournal(journal)
        if resume and journal_obj.exists():
            done = journal_obj.load(spec)
            # Rewrite cleanly before appending: a torn tail from the
            # crash would otherwise corrupt the first new row line.
            journal_obj.compact(spec, n_cells=len(cells), rows=done)
            if progress is not None and done:
                progress(
                    f"resuming: {len(done)}/{len(cells)} cells already "
                    f"journaled in {journal_obj.path}"
                )
        else:
            journal_obj.start(spec, n_cells=len(cells))
    pending = [i for i in range(len(cells)) if i not in done]
    configs = [cells[i][0] for i in pending]
    offsets = [cells[i][1] for i in pending]
    tags = [cells[i][2] for i in pending]

    def on_result(index: int, total: int, job_result) -> None:
        if journal_obj is not None:
            journal_obj.append_row(pending[index], _row_from_job(job_result))
        if progress is None:
            return
        progress(
            f"[{index + 1:>{len(str(total))}}/{total}] "
            f"{job_result.spec.tag}: "
            f"combined={job_result.result.metrics.combined:.3f} "
            f"({job_result.wall_clock_s:.2f} s, {job_result.max_rss_kb} KiB, "
            f"pid {job_result.pid})"
        )

    start = time.perf_counter()
    job_results = (
        run_configs_parallel(
            configs,
            n_jobs=n_jobs,
            cache_dir=cache_dir,
            seed_offsets=offsets,
            repetitions=spec.repetitions,
            tags=tags,
            on_result=on_result,
            retries=retries,
        )
        if pending
        else []
    )
    elapsed = time.perf_counter() - start
    rows_by_cell = dict(done)
    failures: list[CampaignFailure] = []
    for job_index, job_result in enumerate(job_results):
        cell_index = pending[job_index]
        if isinstance(job_result, JobFailure):
            failure = CampaignFailure(
                index=cell_index,
                tag=tags[job_index],
                error=job_result.error,
                attempts=job_result.attempts,
            )
            failures.append(failure)
            if journal_obj is not None:
                journal_obj.append_failure(
                    cell_index, failure.tag, failure.error, failure.attempts
                )
            continue
        rows_by_cell[cell_index] = _row_from_job(job_result)
    rows = tuple(
        rows_by_cell[i] for i in range(len(cells)) if i in rows_by_cell
    )
    return CampaignResult(
        spec=spec,
        rows=rows,
        n_jobs=n_jobs,
        elapsed_s=elapsed,
        failed=tuple(failures),
    )


def rollup_campaign(result: CampaignResult) -> CampaignRollup:
    """Fold a finished campaign into a :class:`CampaignRollup`.

    One rollup entry per row, keyed by the cell tag.  Building the
    rollup from a pooled and a serial run of the same spec produces
    byte-identical :meth:`~CampaignRollup.to_json` output — the rollup
    half of the pooled-equality gate.
    """
    rollup = CampaignRollup()
    for row in result.rows:
        rollup.add_run(
            row.tag,
            metrics=row.metrics.as_dict(),
            slo=row.slo,
            decision_digest=row.decision_digest,
        )
    return rollup
