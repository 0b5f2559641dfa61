"""The two-level allocation contract (redesign of Figure 1, box 2).

The paper's step-2 algorithms are strictly *per-candidate*: given one
replication candidate, decide how many replicas and on which
processors.  That shape — :class:`AllocationPolicy` with
``replicate(AllocationRequest) -> AllocationOutcome`` — cannot express
allocators that must reason over **all** candidates and the whole
cluster at once (market clearing, dominant-resource fairness, oracle
planning).  This module layers the contract in two levels:

**Level 1 — per-candidate** (the paper's shape, unchanged):
:class:`AllocationRequest` / :class:`AllocationOutcome` /
:class:`AllocationPolicy`.  Figure 5 and Figure 7 live here, as do all
user-registered policies written against the historical API.

**Level 2 — per-cycle**: an :class:`Allocator` receives one
:class:`AllocationContext` per monitoring cycle — every replication
candidate the monitor flagged, the full utilization snapshot (the
system's per-event readings, the same ones the paper policies see), the
estimator, the stage budgets, and the hardened loop's exclusions — and
returns an :class:`AllocationPlan`.  The
:class:`~repro.core.manager.AdaptiveResourceManager` drives level 2
exclusively.

:class:`CandidatePolicyAdapter` lifts any level-1 policy into level 2
by replaying the manager's historical candidate loop, so predictive and
non-predictive runs keep **bit-identical decision digests** through the
redesign (pinned by ``tests/integration/test_allocator_digest_equivalence.py``).

A registry maps names (``"predictive"``, ``"market"``, ...) to
factories so experiment configs select allocators by string;
:func:`get_allocator` instantiates and lifts in one step.

This module is the canonical home of every name that used to live in
``repro.core.allocator``; the old module path keeps working behind
:class:`DeprecationWarning` shims.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Protocol, Union, runtime_checkable

from repro.cluster.processor import Processor
from repro.cluster.topology import System
from repro.core.deadlines import DeadlineAssignment
from repro.errors import AllocationError
from repro.regression.estimator import TimingEstimator
from repro.tasks.model import PeriodicTask
from repro.tasks.state import ReplicaAssignment


# -- level 1: the per-candidate contract (the paper's shape) ---------------------


@dataclass(frozen=True)
class AllocationRequest:
    """Everything a policy may consult when handling one candidate.

    Attributes
    ----------
    task / subtask_index:
        The replication candidate.
    assignment:
        Live placement; policies mutate it via its invariant-checked API.
    system:
        The cluster (source of ``ut(p, t)`` readings).
    estimator:
        Regression-backed ``eex``/``ecd`` (the predictive policy's
        forecasting oracle; the non-predictive policy ignores it).
    deadlines:
        Current per-stage budgets.
    d_tracks:
        ``ds(T, c)``: data items in the current period.
    total_periodic_tracks:
        Total workload across all tasks this period (drives eq. 5).
    excluded_processors:
        Processors the hardened loop has ruled out this cycle (repeat
        offenders, implausible readings — see
        :class:`repro.core.hardening.PlacementGuard`).  Policies must
        not place replicas there; empty in the unhardened loop.
    reading_guard:
        Optional sanitizer applied to every utilization reading a
        policy feeds into the regression models (the hardened loop
        installs :func:`repro.core.hardening.sanitize_reading`;
        ``None`` — the unhardened default — uses readings verbatim).
    """

    task: PeriodicTask
    subtask_index: int
    assignment: ReplicaAssignment
    system: System
    estimator: TimingEstimator
    deadlines: DeadlineAssignment
    d_tracks: float
    total_periodic_tracks: float
    excluded_processors: frozenset[str] = frozenset()
    reading_guard: Callable[[float], float] | None = None


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


class AllocationPolicy(Protocol):
    """Level-1 (per-candidate) step-2 algorithm interface."""

    name: str

    def replicate(self, request: AllocationRequest) -> AllocationOutcome:
        """Handle one replication candidate (Figure 5 / Figure 7)."""
        ...


# -- level 2: the per-cycle contract ---------------------------------------------


@dataclass(frozen=True)
class AllocationContext:
    """One monitoring cycle's whole allocation problem.

    Everything a cycle-scoped allocator may consult: the candidates the
    monitor flagged REPLICATE (in verdict order, post backoff filter),
    the live placement, the cluster, the estimator, the stage budgets,
    the current workload, and the hardened loop's exclusions.

    Attributes
    ----------
    candidates:
        Subtask indices flagged REPLICATE this cycle, in monitor
        verdict order.  Per-candidate adapters consume them in exactly
        this order — that is what keeps the historical policies
        bit-identical.
    cycle:
        The RM step index (``len(manager.history)`` at step time).
    now:
        Simulation time of the step.

    The remaining fields carry the same payload as
    :class:`AllocationRequest` (which :meth:`request_for` derives per
    candidate).
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

    def request_for(self, subtask_index: int) -> AllocationRequest:
        """The level-1 request for one candidate of this cycle."""
        return AllocationRequest(
            task=self.task,
            subtask_index=subtask_index,
            assignment=self.assignment,
            system=self.system,
            estimator=self.estimator,
            deadlines=self.deadlines,
            d_tracks=self.d_tracks,
            total_periodic_tracks=self.total_periodic_tracks,
            excluded_processors=self.excluded_processors,
            reading_guard=self.reading_guard,
        )

    def utilization_snapshot(
        self, window: float | None = None
    ) -> dict[str, float]:
        """``ut(p, t)`` for every processor, reading-guard applied.

        With the default window the snapshot is a copy of the system's
        per-event readings, the ones the paper policies select from;
        cycle-scoped allocators price or rank the whole cluster from this
        one dict instead of issuing per-candidate queries.
        """
        raw = self.system.utilizations(window=window)
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


@dataclass(frozen=True)
class AllocationPlan:
    """A cycle-scoped allocator's answer: one outcome per candidate.

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
    """Level-2 (cycle-scoped) step-2 algorithm interface."""

    name: str

    def allocate(self, context: AllocationContext) -> AllocationPlan:
        """Resolve every replication candidate of one cycle."""
        ...


@dataclass(frozen=True)
class CandidatePolicyAdapter:
    """Lift a level-1 :class:`AllocationPolicy` into the level-2 contract.

    Replays the manager's historical loop — one
    ``policy.replicate(request)`` call per candidate, in candidate
    order — so adapted policies take bit-identical decisions to the
    pre-redesign control loop.
    """

    policy: AllocationPolicy

    @property
    def name(self) -> str:
        """The adapted policy's registry name."""
        return self.policy.name

    def allocate(self, context: AllocationContext) -> AllocationPlan:
        """One ``replicate`` call per candidate, in candidate order."""
        outcomes = tuple(
            self.policy.replicate(context.request_for(subtask_index))
            for subtask_index in context.candidates
        )
        return AllocationPlan(outcomes=outcomes, allocator_name=self.name)


#: Anything the registry may hand back: either contract level.
AnyAllocator = Union[Allocator, AllocationPolicy]


def as_allocator(candidate: AnyAllocator) -> Allocator:
    """Coerce either contract level to a cycle-scoped :class:`Allocator`.

    Level-2 allocators pass through untouched; level-1 policies are
    wrapped in a :class:`CandidatePolicyAdapter`.  Objects exposing
    neither ``allocate`` nor ``replicate`` raise
    :class:`~repro.errors.AllocationError`.
    """
    if hasattr(candidate, "allocate"):
        return candidate  # type: ignore[return-value]
    if hasattr(candidate, "replicate"):
        return CandidatePolicyAdapter(candidate)  # type: ignore[arg-type]
    raise AllocationError(
        f"{type(candidate).__name__} implements neither the Allocator nor "
        "the AllocationPolicy contract (no allocate()/replicate() method)"
    )


# -- the registry -----------------------------------------------------------------

_REGISTRY: dict[str, Callable[..., AnyAllocator]] = {}


def register_policy(name: str, factory: Callable[..., AnyAllocator]) -> None:
    """Register an allocator factory under ``name``.

    Factories may build either contract level; :func:`get_allocator`
    lifts level-1 products automatically.  Re-registering the same
    factory under the same name is a no-op; a different factory raises.
    """
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not factory:
        raise AllocationError(f"policy {name!r} already registered")
    _REGISTRY[name] = factory


def _accepted_kwargs(factory: Callable[..., AnyAllocator]) -> list[str]:
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


def get_policy(name: str, **kwargs: object) -> AnyAllocator:
    """Instantiate a registered allocator factory by name.

    Returns whatever the factory builds (either contract level); use
    :func:`get_allocator` for a ready-to-run level-2 allocator.  A
    factory rejecting the keyword arguments surfaces as
    :class:`~repro.errors.AllocationError` naming the policy and the
    keywords its factory accepts, instead of a bare ``TypeError``
    traceback from deep inside the constructor.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise AllocationError(
            f"unknown policy {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    try:
        return factory(**kwargs)
    except TypeError as exc:
        accepted = _accepted_kwargs(factory)
        raise AllocationError(
            f"policy {name!r} rejected keyword(s) {sorted(kwargs)}: {exc}; "
            f"accepted keyword(s): {accepted}"
        ) from exc


def get_allocator(name: str, **kwargs: object) -> Allocator:
    """Instantiate a registered allocator, lifted to the level-2 contract.

    ``get_allocator("predictive")`` returns the Figure 5 policy wrapped
    in a :class:`CandidatePolicyAdapter`; ``get_allocator("market")``
    returns the cycle-scoped market allocator directly.
    """
    return as_allocator(get_policy(name, **kwargs))


def registered_policies() -> tuple[str, ...]:
    """Names of all registered allocators (sorted)."""
    return tuple(sorted(_REGISTRY))
