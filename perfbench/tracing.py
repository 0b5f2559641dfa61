"""Per-layer tracing from outside the program.

:class:`LayerTracer` replaces the program's layer-boundary functions, at
class or module level, with wrappers that record calls, inclusive time
and self time (inclusive minus the time of wrapped callees).  Boundaries
in ``SPAN`` mode also keep one span per call — ``(id, name, start, end,
parent id)`` — in memory; ``TIME`` boundaries (thousands of calls per
run) are timed but keep no span.  ``UtilizationMeter.utilization`` runs
about 1.4x10^5 times per P=512 run and is only counted (``COUNT``): its
time is inside its caller ``Processor.utilization``, which is timed.

The originals are put back when the ``installed()`` block exits.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

SPAN, TIME, COUNT = "span", "time", "count"

#: (module, class or None for a module function, attribute, mode).
#: ``compute_metrics`` and ``build_world``/``finalize_world`` are patched
#: in ``repro.experiments.runner``, the namespace their callers use.
BOUNDARIES = (
    ("repro.sim.engine", "Engine", "run_until", SPAN),
    ("repro.cluster.processor", "Processor", "utilization", TIME),
    ("repro.cluster.metering", "UtilizationMeter", "utilization", COUNT),
    ("repro.cluster.topology", "System", "least_utilized", SPAN),
    ("repro.cluster.topology", "System", "processors_below", SPAN),
    ("repro.cluster.topology", "System", "mean_utilization", SPAN),
    ("repro.cluster.topology", "System", "utilizations", SPAN),
    ("repro.cluster.processor", "Processor", "submit", TIME),
    ("repro.cluster.network", "Network", "send", TIME),
    ("repro.core.manager", "AdaptiveResourceManager", "step", SPAN),
    ("repro.core.manager", "AdaptiveResourceManager", "state_dict", SPAN),
    ("repro.core.monitoring", "RuntimeMonitor", "classify", SPAN),
    ("repro.core.allocation", "CandidatePolicyAdapter", "allocate", SPAN),
    ("repro.core.predictive", "PredictivePolicy", "replicate", SPAN),
    ("repro.core.nonpredictive", "NonPredictivePolicy", "replicate", SPAN),
    ("repro.regression.estimator", "TimingEstimator", "eex_seconds", TIME),
    ("repro.regression.estimator", "TimingEstimator", "eex_seconds_many", TIME),
    ("repro.regression.estimator", "TimingEstimator", "ecd_seconds", TIME),
    ("repro.recovery.checkpoint", "Checkpointer", "take", SPAN),
    ("repro.telemetry.slo", "SloEngine", "evaluate", SPAN),
    ("repro.experiments.runner", None, "build_world", SPAN),
    ("repro.experiments.runner", None, "finalize_world", SPAN),
    ("repro.experiments.runner", None, "compute_metrics", SPAN),
    ("repro.experiments.history_index", "RunHistoryIndex", "update", SPAN),
)

#: Every ``TelemetryHub.on_*`` hook is timed (hub calls), never spanned.
HUB = ("repro.telemetry.hub", "TelemetryHub")


def boundary_name(owner: str | None, attr: str) -> str:
    """``Class.method`` or the bare function name."""
    return f"{owner}.{attr}" if owner else attr


class LayerTracer:
    """Call counts, inclusive and self time per boundary, and spans."""

    def __init__(self) -> None:
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: (span id, name, start, end, parent span id or 0)
        self.spans: list[tuple] = []
        #: Bytes pickled by ``Checkpointer.take`` (``SimSnapshot.payload``).
        self.snapshot_bytes = 0
        #: Boundaries the program no longer has (reported, not fatal).
        self.missing: set[str] = set()
        self._stack: list[list] = []
        self._next_id = 1

    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay)."""
        for slot in self.totals.values():
            slot[:] = [0, 0.0, 0.0]
        self.spans.clear()
        self.snapshot_bytes = 0

    def snapshot(self) -> dict[str, tuple]:
        """A copy of the totals, ``name -> (calls, inclusive_s, self_s)``."""
        return {name: tuple(slot) for name, slot in self.totals.items()}

    def _wrap(self, fn, name: str, mode: str):
        slot = self.totals.setdefault(name, [0, 0.0, 0.0])
        if mode == COUNT:

            @functools.wraps(fn)
            def counter(*args, **kwargs):
                slot[0] += 1
                return fn(*args, **kwargs)

            return counter
        keep_span = mode == SPAN
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self
        count_bytes = name == "Checkpointer.take"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            if keep_span:
                span_id = tracer._next_id
                tracer._next_id = span_id + 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    spans.append((span_id, name, start, end, parent))
            if count_bytes:
                tracer.snapshot_bytes += len(result.payload)
            return result

        return wrapper

    def _targets(self):
        yield from BOUNDARIES
        hub_module, hub_class = HUB
        try:
            hub = getattr(importlib.import_module(hub_module), hub_class)
        except (ImportError, AttributeError):
            self.missing.add(f"{hub_module}.{hub_class}")
            return
        for attr in sorted(vars(hub)):
            if attr.startswith("on_") and callable(vars(hub)[attr]):
                yield hub_module, hub_class, attr, TIME

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        originals = []
        try:
            for module_name, owner_name, attr, mode in self._targets():
                name = boundary_name(owner_name, attr)
                try:
                    module = importlib.import_module(module_name)
                    owner = getattr(module, owner_name) if owner_name else module
                    fn = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing.add(name)
                    continue
                setattr(owner, attr, self._wrap(fn, name, mode))
                originals.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)
