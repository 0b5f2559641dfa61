"""One shared indexed pass over a run's history.

``summarize``-style consumers — CSV export, timeline extraction,
forecast calibration, the §5.2 metrics — each used to iterate all of
``manager.history`` (and the executor's period records) independently,
so a single reporting pipeline rescanned the same run three or four
times.  :class:`RunHistoryIndex` folds every derived view into **one
cursor-based incremental pass**: :meth:`update` ingests only the events
appended since the last call, and every consumer reads the accumulated
views.  All views are value-identical (bit-identical floats, same row
order) to the full rescans they replace; ``tests/experiments/
test_history_index.py`` pins that equivalence.

The index also maintains a running **decision digest** — a SHA-256 over
the canonical decision sequence (time, policy, outcomes, shutdowns,
recoveries per step) — which is how the golden-digest pins and the
sharded-campaign equivalence gates compare runs without shipping whole
histories across processes.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.manager import AdaptiveResourceManager
    from repro.runtime.executor import PeriodicTaskExecutor
    from repro.runtime.records import PeriodRecord


def decision_event_key(event: Any) -> tuple:
    """The canonical (hashable, repr-stable) form of one RM step."""
    return (
        event.time,
        event.policy_name,
        event.total_replicas,
        tuple(
            (o.subtask_index, o.success, o.added_processors, o.forecast_latency)
            for o in event.outcomes
        ),
        event.shutdowns,
        event.recoveries,
    )


class RunHistoryIndex:
    """Incremental accumulators over one run's histories.

    Parameters
    ----------
    executor / manager:
        The run's executor and resource manager.  Their histories are
        append-only; :meth:`update` advances a cursor over each and
        folds the new entries into every view at once.
    """

    def __init__(
        self,
        executor: "PeriodicTaskExecutor",
        manager: "AdaptiveResourceManager",
    ) -> None:
        self.executor = executor
        self.manager = manager
        # -- manager.history accumulators (cursor: _n_events) --
        self._n_events = 0
        self._action_rows: list[tuple] = []
        self._sample_times: list[float] = []
        self._sample_counts: list[int] = []
        self._count_prefix: list[int] = [0]  # prefix sums of _sample_counts
        self._timeline_samples: list[tuple[float, int, bool]] = []
        self._forecast_decisions: list[tuple[float, int, int, float]] = []
        self._actions = 0
        self._digest = hashlib.sha256()
        # -- executor.records accumulators (cursor: _n_records) --
        self._n_records = 0
        self._by_period: dict[int, "PeriodRecord"] = {}
        self._counts_key: tuple[int, int, float] | None = None
        self._counts: tuple[int, int, int] = (0, 0, 0)

    # -- ingestion ----------------------------------------------------------

    def update(self) -> "RunHistoryIndex":
        """Fold history/records appended since the last call; returns self."""
        history = self.manager.history
        for event in history[self._n_events :]:
            self._digest.update(repr(decision_event_key(event)).encode())
            self._sample_times.append(event.time)
            self._sample_counts.append(event.total_replicas)
            self._count_prefix.append(
                self._count_prefix[-1] + event.total_replicas
            )
            self._timeline_samples.append(
                (event.time, event.total_replicas, event.acted)
            )
            if event.acted:
                self._actions += 1
            for outcome in event.outcomes:
                if outcome.changed:
                    self._action_rows.append(
                        (
                            event.time,
                            "replicate",
                            outcome.subtask_index,
                            "+".join(outcome.added_processors),
                            event.total_replicas,
                        )
                    )
                if outcome.forecast_latency is not None and outcome.changed:
                    self._forecast_decisions.append(
                        (
                            event.time,
                            outcome.subtask_index,
                            len(event.placement[outcome.subtask_index]),
                            outcome.forecast_latency,
                        )
                    )
            for subtask_index, processor in event.shutdowns:
                self._action_rows.append(
                    (
                        event.time,
                        "shutdown",
                        subtask_index,
                        processor,
                        event.total_replicas,
                    )
                )
            for subtask_index, dead, target in event.recoveries:
                self._action_rows.append(
                    (
                        event.time,
                        "recovery",
                        subtask_index,
                        f"{dead}->{target or 'evicted'}",
                        event.total_replicas,
                    )
                )
        self._n_events = len(history)
        records = self.executor.records
        for record in records[self._n_records :]:
            self._by_period[record.period_index] = record
        self._n_records = len(records)
        return self

    # -- manager-side views --------------------------------------------------

    @property
    def decision_digest(self) -> str:
        """SHA-256 over the decision sequence ingested so far."""
        return self._digest.copy().hexdigest()

    def action_rows(self) -> list[tuple]:
        """CSV-ready decision rows (same order as the legacy rescan)."""
        return list(self._action_rows)

    def replica_samples(self) -> list[tuple[float, int]]:
        """``(time, total replicas)`` per step — mirrors the manager's view."""
        return list(zip(self._sample_times, self._sample_counts))

    def windowed_replica_mean(
        self, t_start: float, t_end: float
    ) -> float | None:
        """Mean replica count over steps with ``t_start <= time < t_end``.

        Served from prefix sums in O(log n); ``None`` when no step falls
        inside the window.  Identical to ``sum(counts)/len(counts)``
        over the filtered samples (integer prefix sums are exact).
        """
        lo = bisect_left(self._sample_times, t_start)
        hi = bisect_left(self._sample_times, t_end)
        if hi <= lo:
            return None
        return (self._count_prefix[hi] - self._count_prefix[lo]) / (hi - lo)

    def actions_taken(self) -> int:
        """Number of steps that changed the placement."""
        return self._actions

    def timeline_samples(self) -> list[tuple[float, int, bool]]:
        """``(time, total replicas, acted)`` per step, for timelines."""
        return list(self._timeline_samples)

    def forecast_decisions(self) -> list[tuple[float, int, int, float]]:
        """``(time, subtask, replica count, forecast_s)`` per replication."""
        return list(self._forecast_decisions)

    # -- executor-side views -------------------------------------------------

    def record_of_period(self, period_index: int) -> "PeriodRecord | None":
        """The period's record, or ``None`` if never released."""
        return self._by_period.get(period_index)

    def period_counts(self, t_end: float) -> tuple[int, int, int]:
        """``(released, missed, aborted)`` over releases before ``t_end``.

        Period records settle in place (completion/abort mutates them
        after release), so these counts are derived — not purely
        accumulated — but computed at most once per settlement state:
        the cached value is keyed on (record count, in-flight count,
        ``t_end``) and every consumer of a finished run shares one scan.
        """
        key = (self._n_records, self.executor.in_flight_count, t_end)
        if key == self._counts_key:
            return self._counts
        records = self.executor.records
        release_times = [r.release_time for r in records]
        # Releases are chronological, so the strict `release_time <
        # t_end` window is a prefix.
        window = records[: bisect_left(release_times, t_end)]
        released = len(window)
        missed = sum(
            1 for r in window if r.missed or (not r.completed and not r.aborted)
        )
        aborted = sum(1 for r in window if r.aborted)
        self._counts_key = key
        self._counts = (released, missed, aborted)
        return self._counts
