"""Streaming trace sinks.

A sink receives one plain-dict record per occurrence from a
:class:`~repro.telemetry.hub.TelemetryHub` and persists it
*incrementally*: nothing accumulates in memory (except in
:class:`MemorySink`, which tests read) and a crashed run keeps everything
written so far.  The JSONL format (one JSON object per line) is the on-disk
interchange: ``repro trace`` converts it to a Chrome trace and summary
tables, and any jq/pandas pipeline can consume it directly.

Record convention
-----------------
Every record carries ``t`` (simulation time, seconds) and ``kind``; the
remaining keys are kind-specific.  The instrumentation emits:

``trace``
    One instrumented occurrence (``cat``, ``label``, ``data``) — jobs,
    messages, periods, failures, chaos faults and RM crash/act/takeover.
    Executed calendar events are not recorded one by one.
``rm.span``
    One resource-manager decision cycle (see
    :mod:`repro.telemetry.spans`).
``rm.forecast_realized``
    A Figure 5 forecast paired with the stage latency later observed.
``run.meta``
    Run-level context (policy, pattern, horizon), written once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, IO


class TraceSink:
    """Base sink: discards everything (also the no-op default)."""

    def write(self, record: dict[str, Any]) -> None:
        """Persist one record (base class: drop it)."""

    def close(self) -> None:
        """Flush and release resources (base class: nothing to do)."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class MemorySink(TraceSink):
    """Keeps records in a list — for tests and in-process consumers."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def write(self, record: dict[str, Any]) -> None:
        """Append the record to the in-memory list."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)


class JsonlTraceSink(TraceSink):
    """Appends records to a ``.jsonl`` file as they arrive.

    Parameters
    ----------
    path:
        Target file (parent directories are created).
    flush_every:
        Records between explicit flushes.  Buffered I/O keeps the write
        cheap; periodic flushing bounds how much a crash can lose.
    append:
        Open the file in append mode instead of truncating.  This is
        what a resumed run (:mod:`repro.recovery`) needs: records
        written before the checkpoint survive and the continuation's
        records concatenate after them.
    """

    def __init__(
        self, path: str | Path, flush_every: int = 256, append: bool = False
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        mode = "a" if append else "w"
        self._fh: IO[str] | None = self.path.open(mode, encoding="utf-8")
        self._flush_every = max(1, int(flush_every))
        self._unflushed = 0
        self.written = 0

    def __getstate__(self) -> dict[str, Any]:
        # The OS file handle cannot cross a pickle boundary.  Snapshot
        # the configuration and counters; restore reopens in *append*
        # mode so the resumed run extends the trace instead of
        # truncating what the original run already persisted.
        state = dict(self.__dict__)
        state["_fh"] = None
        state["_was_open"] = self._fh is not None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        was_open = state.pop("_was_open", False)
        self.__dict__.update(state)
        self._unflushed = 0
        if was_open:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")

    def write(self, record: dict[str, Any]) -> None:
        """Serialize the record as one compact JSON line."""
        if self._fh is None:
            return  # closed: late stragglers are dropped, not an error
        self._fh.write(json.dumps(record, separators=(",", ":"), default=str))
        self._fh.write("\n")
        self.written += 1
        self._unflushed += 1
        if self._unflushed >= self._flush_every:
            self._fh.flush()
            self._unflushed = 0

    def flush(self) -> None:
        """Force buffered records to disk without closing the sink."""
        if self._fh is not None:
            self._fh.flush()
            self._unflushed = 0

    def close(self) -> None:
        """Flush and close the file; later writes are dropped.

        Exception-safe: the file handle is released even if the final
        flush fails, and a second ``close`` is a no-op.  Combined with
        the context-manager protocol on :class:`TraceSink` this means a
        run that dies mid-flight still lands every record written
        before the crash — ``__exit__`` runs on the way out of the
        ``with`` block regardless of the exception.
        """
        fh = self._fh
        if fh is not None:
            self._fh = None
            try:
                fh.flush()
            finally:
                fh.close()


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load a JSONL trace back into a list of records.

    Tolerates a truncated final line (the crash-in-progress case the
    streaming sink exists for); any other malformed line raises
    :class:`~repro.errors.TelemetryError`.
    """
    from repro.errors import TelemetryError

    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise TelemetryError(f"cannot read trace {path}: {exc}") from exc
    records: list[dict[str, Any]] = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if i == len(lines) - 1:
                break  # truncated tail from an interrupted run
            raise TelemetryError(
                f"{path}:{i + 1}: malformed trace line: {exc}"
            ) from exc
    return records
