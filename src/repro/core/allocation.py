"""The allocation contract (redesign of Figure 1, box 2).

Every step-2 algorithm is an :class:`Allocator`: once per monitoring
cycle it receives one :class:`AllocationContext` — every replication
candidate the monitor flagged, the live placement, the cluster, the
estimator, the stage budgets, and the hardened loop's exclusions and
reading guard — and returns an :class:`AllocationPlan` with one
:class:`AllocationOutcome` per candidate.  The
:class:`~repro.core.manager.AdaptiveResourceManager`, the registry and
the shutdown strategies all take this one context type.

The paper's algorithms are *per-candidate*: given one replication
candidate, decide how many replicas and on which processors.  They
subclass :class:`CandidatePolicyAdapter`, implement
``replicate(context, subtask_index)`` (Figure 5, Figure 7, and the
extra policies) and inherit ``allocate`` — the one candidate-order
loop, which keeps their decisions bit-identical to the historical
control loop (pinned by
``tests/integration/test_allocator_digest_equivalence.py``).
Allocators that reason over all candidates at once (market clearing,
dominant-resource fairness, oracle planning — :mod:`repro.core.zoo`)
implement ``allocate`` directly.

:meth:`AllocationContext.forecast_latency` is the one worst-replica
forecast (``max eex + ecd`` over a replica set, eqs. 3-6): Figure 5,
the forecast-aware shutdown and the zoo's market and fair-share
allocators all call it, so every caller sees the same guarded readings.

A registry maps names (``"predictive"``, ``"market"``, ...) to
factories so experiment configs select allocators by string.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.cluster.processor import Processor
from repro.cluster.topology import System
from repro.core.deadlines import DeadlineAssignment
from repro.errors import AllocationError
from repro.regression.estimator import TimingEstimator
from repro.tasks.model import PeriodicTask
from repro.tasks.state import ReplicaAssignment

@dataclass(frozen=True)
class AllocationOutcome:
    """What an allocator did with one candidate.

    ``success`` mirrors Figure 5's SUCCESS/FAILURE: the predictive
    policy reports FAILURE when it ran out of processors before the
    forecast satisfied the budget (replicas added along the way are
    kept, as in the paper's pseudo-code, which never rolls back).
    """

    subtask_index: int
    success: bool
    added_processors: tuple[str, ...] = field(default_factory=tuple)
    forecast_latency: float | None = None

    @property
    def changed(self) -> bool:
        """Whether the placement was modified."""
        return bool(self.added_processors)


@dataclass(frozen=True)
class AllocationContext:
    """One monitoring cycle's whole allocation problem.

    Attributes
    ----------
    task:
        The task whose subtasks are being placed.
    assignment:
        Live placement; allocators mutate it via its invariant-checked
        API.
    system:
        The cluster (source of ``ut(p, t)`` readings).
    estimator:
        Regression-backed ``eex``/``ecd`` (the forecasting oracle; the
        non-predictive policy ignores it).
    deadlines:
        Current per-stage budgets.
    d_tracks:
        ``ds(T, c)``: data items in the current period.
    total_periodic_tracks:
        Total workload across all tasks this period (drives eq. 5).
    candidates:
        Subtask indices flagged REPLICATE this cycle, in monitor
        verdict order (post backoff filter).  Per-candidate policies
        consume them in exactly this order — that is what keeps the
        historical policies bit-identical.
    excluded_processors:
        Processors the hardened loop has ruled out this cycle (repeat
        offenders, implausible readings — see
        :class:`repro.core.hardening.PlacementGuard`).  Allocators must
        not place replicas there; empty in the unhardened loop.
    reading_guard:
        Optional sanitizer applied to every utilization reading fed
        into the regression models (the hardened loop installs
        :func:`repro.core.hardening.sanitize_reading`; ``None`` — the
        unhardened default — uses readings verbatim).
    cycle:
        The RM step index (``len(manager.history)`` at step time).
    now:
        Simulation time of the step.
    """

    task: PeriodicTask
    assignment: ReplicaAssignment
    system: System
    estimator: TimingEstimator
    deadlines: DeadlineAssignment
    d_tracks: float
    total_periodic_tracks: float
    candidates: tuple[int, ...] = ()
    excluded_processors: frozenset[str] = frozenset()
    reading_guard: Callable[[float], float] | None = None
    cycle: int = 0
    now: float = 0.0

    def utilization_snapshot(self) -> dict[str, float]:
        """``ut(p, t)`` for every processor, reading-guard applied.

        A copy of the system's per-event readings, the ones the paper
        policies select from; cycle-scoped allocators price or rank the
        whole cluster from this one dict instead of issuing
        per-candidate queries.
        """
        raw = self.system.utilizations()
        if self.reading_guard is None:
            return raw
        guard = self.reading_guard
        return {name: guard(value) for name, value in raw.items()}

    def available_processors(self, subtask_index: int) -> list[Processor]:
        """Live processors a candidate may still be replicated onto.

        Excludes failed processors, the candidate's current hosts
        (replicas of one subtask must sit on distinct processors), and
        the hardened loop's ``excluded_processors`` — in creation
        order, so every allocator sees the same deterministic sweep.
        """
        hosting = set(self.assignment.processors_of(subtask_index))
        blocked = hosting | self.excluded_processors
        return [
            processor
            for processor in self.system.live_processors()
            if processor.name not in blocked
        ]

    def stage_threshold(
        self, subtask_index: int, slack_fraction: float
    ) -> float:
        """Figure 5's acceptance bound: budget minus the desired slack."""
        budget = self.deadlines.stage_budget(subtask_index)
        return budget - slack_fraction * budget

    def forecast_latency(
        self, subtask_index: int, replicas: Sequence[str]
    ) -> float:
        """Worst replica's forecast ``eex + ecd`` (Figure 5, step 6).

        Each of the ``k`` named replicas processes ``d / k`` items.
        Execution latency is eq. 3 at the hosting processor's reading —
        taken from the system's per-event memo and passed through
        ``reading_guard`` — evaluated for all replicas in one
        ``eex_seconds_many`` call; the incoming message (eqs. 4-6
        at the total periodic workload) depends only on the share, so
        it is added once.  ``replicas`` need not be the current
        placement: callers evaluate a hypothetical one (one replica
        more, one fewer) without mutating the assignment.
        """
        share = self.d_tracks / len(replicas)
        if subtask_index > 1:
            ecd = self.estimator.ecd_seconds(
                subtask_index - 1, share, self.total_periodic_tracks
            )
        else:
            ecd = 0.0
        utilizations = self.system.utilizations_of(replicas)
        guard = self.reading_guard
        if guard is not None:
            utilizations = [guard(u) for u in utilizations]
        eex = self.estimator.eex_seconds_many(subtask_index, share, utilizations)
        return max(0.0, float(np.max(eex + ecd)))


@dataclass(frozen=True)
class AllocationPlan:
    """An allocator's answer: one outcome per candidate.

    Outcomes keep candidate order.  ``allocator_name`` records which
    allocator actually produced the plan (the hardened loop's circuit
    breaker may have substituted the fallback).
    """

    outcomes: tuple[AllocationOutcome, ...] = ()
    allocator_name: str = ""

    @property
    def changed(self) -> bool:
        """Whether any outcome modified the placement."""
        return any(outcome.changed for outcome in self.outcomes)

    def outcome_for(self, subtask_index: int) -> AllocationOutcome | None:
        """The outcome recorded for one candidate, if any."""
        for outcome in self.outcomes:
            if outcome.subtask_index == subtask_index:
                return outcome
        return None


@runtime_checkable
class Allocator(Protocol):
    """The step-2 algorithm interface: one call per monitoring cycle."""

    name: str

    def allocate(self, context: AllocationContext) -> AllocationPlan:
        """Resolve every replication candidate of one cycle."""
        ...


class CandidatePolicyAdapter(ABC):
    """Base class of the per-candidate policies.

    Subclasses implement :meth:`replicate` for one candidate; the
    inherited :meth:`allocate` calls it once per candidate, in candidate
    order — the manager's historical loop — so per-candidate policies
    take bit-identical decisions to the pre-redesign control loop.
    """

    name: str

    @abstractmethod
    def replicate(
        self, context: AllocationContext, subtask_index: int
    ) -> AllocationOutcome:
        """Handle one replication candidate (Figure 5 / Figure 7)."""

    def allocate(self, context: AllocationContext) -> AllocationPlan:
        """One ``replicate`` call per candidate, in candidate order."""
        outcomes = tuple(
            self.replicate(context, subtask_index)
            for subtask_index in context.candidates
        )
        return AllocationPlan(outcomes=outcomes, allocator_name=self.name)


def check_allocator(candidate: object) -> Allocator:
    """``candidate`` itself, if it implements :class:`Allocator`.

    Objects without an ``allocate`` method — including pre-context
    policies that only define ``replicate(request)`` — raise
    :class:`~repro.errors.AllocationError` pointing at the migration
    notes, instead of failing later inside an RM step.
    """
    if callable(getattr(candidate, "allocate", None)):
        return candidate  # type: ignore[return-value]
    raise AllocationError(
        f"{type(candidate).__name__} has no allocate(context) method; "
        "per-candidate policies subclass CandidatePolicyAdapter and "
        "implement replicate(context, subtask_index) — see docs/api.md, "
        '"Removed in 2.0"'
    )


# -- the registry -----------------------------------------------------------------

_REGISTRY: dict[str, Callable[..., Allocator]] = {}


def register_policy(name: str, factory: Callable[..., Allocator]) -> None:
    """Register an allocator factory under ``name``.

    Re-registering the same factory under the same name is a no-op; a
    different factory raises.
    """
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not factory:
        raise AllocationError(f"policy {name!r} already registered")
    _REGISTRY[name] = factory


def _accepted_kwargs(factory: Callable[..., Allocator]) -> list[str]:
    """The keyword parameters a factory's signature accepts."""
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # pragma: no cover - C callables only
        return []
    return [
        parameter.name
        for parameter in signature.parameters.values()
        if parameter.kind
        in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
    ]


def get_policy(name: str, **kwargs: object) -> Allocator:
    """Instantiate a registered allocator factory by name.

    A factory rejecting the keyword arguments surfaces as
    :class:`~repro.errors.AllocationError` naming the policy and the
    keywords its factory accepts, instead of a bare ``TypeError``
    traceback from deep inside the constructor; so does a factory whose
    product has no ``allocate`` method (see :func:`check_allocator`).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise AllocationError(
            f"unknown policy {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    try:
        policy = factory(**kwargs)
    except TypeError as exc:
        accepted = _accepted_kwargs(factory)
        raise AllocationError(
            f"policy {name!r} rejected keyword(s) {sorted(kwargs)}: {exc}; "
            f"accepted keyword(s): {accepted}"
        ) from exc
    return check_allocator(policy)


def registered_policies() -> tuple[str, ...]:
    """Names of all registered allocators (sorted)."""
    return tuple(sorted(_REGISTRY))
