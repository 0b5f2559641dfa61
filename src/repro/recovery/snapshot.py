"""Deterministic whole-run snapshots.

A :class:`SimSnapshot` is one pickle of the run's *world* object (the
:class:`~repro.experiments.runner.RunWorld` assembled by
:func:`~repro.experiments.runner.build_world`) plus the module-level id
counters that live outside it.  Pickling the world as a single object
preserves every shared reference — the engine's calendar, the rng
streams, the cluster, the executor's in-flight bookkeeping and the
controller all reconnect to the *same* restored instances, so a resumed
run replays the exact event sequence the original would have produced.

The capture is versioned (:data:`SNAPSHOT_SCHEMA_VERSION`): loading a
snapshot written by a newer schema fails loudly instead of silently
misinterpreting the payload.

What must hold for this to work (statically checked by the ``CKPT-*``
lint rules): nothing snapshot-reachable may close over locals or hold
OS handles without pickle support.  Every callback on the calendar is a
bound method or a module-level callable class;
:class:`~repro.telemetry.sinks.JsonlTraceSink` reopens its file in
append mode on restore.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError

#: Version stamped into every snapshot.  History: v1 — pickled world
#: payload + ``counters`` (module id counters) + free-form ``meta``.
SNAPSHOT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SimSnapshot:
    """One versioned, self-contained capture of a run at time ``time``.

    Attributes
    ----------
    schema_version:
        Layout version (see :data:`SNAPSHOT_SCHEMA_VERSION`).
    time:
        Simulation time of the capture (seconds).
    payload:
        The pickled world object.
    counters:
        Module-level id counters (job/message ids) that are *not*
        reachable from the world but are decision-relevant: the
        processor-sharing tie-break orders jobs by ``(remaining,
        job_id)``, so a resumed run must mint the same ids the original
        would have.
    meta:
        Free-form context (label, config repr) for humans and tooling.
    """

    schema_version: int
    time: float
    payload: bytes
    counters: dict[str, int] = field(compare=False, default_factory=dict)
    meta: dict[str, Any] = field(compare=False, default_factory=dict)

    def save(self, path: str | Path) -> Path:
        """Persist the snapshot atomically (tmp sibling + rename)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + ".tmp")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(self, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return target

    @classmethod
    def load(cls, path: str | Path) -> "SimSnapshot":
        """Load a snapshot written by :meth:`save`, checking the schema."""
        path = Path(path)
        try:
            with path.open("rb") as handle:
                snapshot = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError) as exc:
            raise ConfigurationError(
                f"cannot load snapshot from {path}: {exc}"
            ) from exc
        if not isinstance(snapshot, cls):
            raise ConfigurationError(
                f"{path} does not contain a SimSnapshot "
                f"(got {type(snapshot).__name__})"
            )
        _check_schema(snapshot.schema_version, origin=str(path))
        return snapshot


def _check_schema(version: int, origin: str = "<snapshot>") -> None:
    if not isinstance(version, int) or version < 1:
        raise ConfigurationError(
            f"{origin}: snapshot schema_version must be a positive "
            f"integer, got {version!r}"
        )
    if version > SNAPSHOT_SCHEMA_VERSION:
        raise ConfigurationError(
            f"{origin}: snapshot schema version {version} is newer than "
            f"this library understands (max {SNAPSHOT_SCHEMA_VERSION})"
        )


def take_snapshot(world: Any, label: str = "") -> SimSnapshot:
    """Capture ``world`` (anything with a ``.system.engine``) at now.

    The world is pickled as one object so shared references survive;
    the module-level job/message id counters ride alongside.
    """
    from repro.cluster import network, processor

    engine = world.system.engine
    return SimSnapshot(
        schema_version=SNAPSHOT_SCHEMA_VERSION,
        time=float(engine.now),
        payload=pickle.dumps(world, protocol=pickle.HIGHEST_PROTOCOL),
        counters={
            "job_ids": processor._job_ids.value,
            "message_ids": network._message_ids.value,
        },
        meta={"label": label},
    )


def restore_snapshot(snapshot: SimSnapshot) -> Any:
    """Rebuild the captured world and rewind the module id counters.

    The returned world is a fresh object graph: running its engine to
    the original horizon replays the exact continuation the original
    run would have produced (bit-identical decision digest and
    metrics).  A payload that no longer unpickles — truncated, or
    naming a module or class this library no longer has — raises
    :class:`~repro.errors.ConfigurationError`, as :meth:`SimSnapshot.load`
    does for unreadable files.
    """
    from repro.cluster import network, processor

    _check_schema(snapshot.schema_version)
    try:
        world = pickle.loads(snapshot.payload)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
        raise ConfigurationError(
            f"cannot restore snapshot {snapshot.meta.get('label', '')!r} "
            f"taken at t={snapshot.time:g}s: {type(exc).__name__}: {exc}"
        ) from exc
    processor._job_ids.reset(snapshot.counters.get("job_ids", 1))
    network._message_ids.reset(snapshot.counters.get("message_ids", 1))
    return world
