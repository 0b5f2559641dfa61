"""Competing cycle-scoped allocators — the allocator zoo (ROADMAP item 2).

The paper only ever compares two step-2 algorithms, both per-candidate.
The cycle-scoped :class:`~repro.core.allocation.Allocator` contract makes
room for designs that must reason over *all* replication candidates and
the whole cluster at once; this module ships three such baselines:

* :class:`MarketAllocator` — price-driven clearing in the spirit of
  utility/price-based distributed resource adaptation (Chasparis et
  al., arXiv:1508.04544): congested processors are expensive,
  candidates bid predicted benefit per unit price, and one trade clears
  per round.
* :class:`FairShareAllocator` — dominant-resource-fairness ordering
  (progressive filling over processor slots and network bytes): the
  candidate with the smallest dominant share gets the next replica.
* :class:`OracleAllocator` — an upper baseline with *perfect* CPU
  forecasts straight from the ground-truth service models (the
  benchmark's ``repro.bench.ground_truth`` instances, reached through
  the :class:`~repro.tasks.model.ServiceModel` contract so the core
  layer never imports bench).  Its combined metric C anchors the
  per-policy *regret* measure
  (:func:`repro.experiments.metrics.regret_by_policy`) — how much C a
  policy gives up to imperfect forecasting, in the spirit of
  replication-count selection against latency tails
  (Wang/Joshi/Wornell, arXiv:1404.1328).

All three consume only the :class:`~repro.core.allocation.AllocationContext`
surface — the one utilization snapshot per cycle, the candidate list,
the hardened loop's exclusions, and (market and fair-share) the one
guarded worst-replica forecast
:meth:`~repro.core.allocation.AllocationContext.forecast_latency` that
Figure 5 uses — and are exactly as deterministic as
the paper policies: no RNG, ties broken by candidate order and
processor creation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.processor import Processor
from repro.core.allocation import (
    AllocationContext,
    AllocationOutcome,
    AllocationPlan,
    register_policy,
)
from repro.errors import ConfigurationError

#: Utilizations this close to saturation are clamped when inverting
#: ``1 - u`` (price and stretch denominators stay finite).
_SATURATION_EPS = 0.05


def _cheapest(
    processors: list[Processor], cost: dict[str, float]
) -> Processor | None:
    """Lowest-cost processor (by utilization or price), ties by creation order."""
    return min(processors, key=lambda processor: cost[processor.name], default=None)


@dataclass
class _CandidateState:
    """Book-keeping for one replication candidate during clearing."""

    subtask_index: int
    threshold: float
    forecast: float
    added: list[str] = field(default_factory=list)

    @property
    def satisfied(self) -> bool:
        """Whether the current forecast fits within the slack target."""
        return self.forecast <= self.threshold


def _current_forecast(context: AllocationContext, subtask_index: int) -> float:
    """:meth:`AllocationContext.forecast_latency` at the current placement."""
    return context.forecast_latency(
        subtask_index, context.assignment.processors_of(subtask_index)
    )


def _initial_states(
    context: AllocationContext,
    slack_fraction: float,
    forecast: Callable[[AllocationContext, int], float] = _current_forecast,
) -> list[_CandidateState]:
    """One clearing state per candidate at the current placement."""
    return [
        _CandidateState(
            subtask_index=subtask_index,
            threshold=context.stage_threshold(subtask_index, slack_fraction),
            forecast=forecast(context, subtask_index),
        )
        for subtask_index in context.candidates
    ]


def _plan_from_states(
    states: list[_CandidateState], allocator_name: str
) -> AllocationPlan:
    """Freeze clearing state into an :class:`AllocationPlan`."""
    return AllocationPlan(
        outcomes=tuple(
            AllocationOutcome(
                subtask_index=state.subtask_index,
                success=state.satisfied,
                added_processors=tuple(state.added),
                forecast_latency=state.forecast,
            )
            for state in states
        ),
        allocator_name=allocator_name,
    )


@dataclass(frozen=True)
class MarketAllocator:
    """Price-driven iterative clearing over all candidates at once.

    Each cycle every processor is assigned a congestion price
    ``1 / max(price_floor, 1 - u)`` from the utilization snapshot —
    idle processors are cheap, saturated ones prohibitively expensive.
    Unsatisfied candidates bid their predicted benefit per unit price
    (forecast improvement from one more replica, divided by the price
    of their cheapest admissible processor); the highest bid wins one
    trade per round, and the traded processor's price inflates by
    ``congestion_increment`` so later rounds spread load.  Clearing
    stops when every candidate's forecast fits its slack target, no
    admissible processors remain, or no bid is positive.

    Attributes
    ----------
    slack_fraction:
        Figure 5's ``sl``, reused as the acceptance target.
    price_floor:
        Lower clamp on ``1 - u`` when pricing (keeps prices finite).
    congestion_increment:
        Fractional price inflation applied to a processor per trade.
    max_rounds:
        Hard cap on clearing rounds per cycle.
    """

    slack_fraction: float = 0.2
    price_floor: float = _SATURATION_EPS
    congestion_increment: float = 0.25
    max_rounds: int = 64
    name: str = "market"

    def __post_init__(self) -> None:
        if not 0.0 <= self.slack_fraction < 1.0:
            raise ConfigurationError(
                f"slack_fraction must be in [0, 1), got {self.slack_fraction}"
            )
        if self.price_floor <= 0.0:
            raise ConfigurationError(
                f"price_floor must be positive, got {self.price_floor}"
            )
        if self.congestion_increment < 0.0:
            raise ConfigurationError(
                "congestion_increment must be non-negative, got "
                f"{self.congestion_increment}"
            )
        if self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )

    def allocate(self, context: AllocationContext) -> AllocationPlan:
        """Clear the cycle's replication market."""
        snapshot = context.utilization_snapshot()
        prices = {
            name: 1.0 / max(self.price_floor, 1.0 - min(utilization, 1.0))
            for name, utilization in snapshot.items()
        }
        states = _initial_states(context, self.slack_fraction)
        for _ in range(self.max_rounds):
            bids: list[tuple[float, int, _CandidateState, Processor, float]] = []
            for order, state in enumerate(states):
                if state.satisfied:
                    continue
                available = context.available_processors(state.subtask_index)
                cheapest = _cheapest(available, prices)
                if cheapest is None:
                    continue
                trial = context.forecast_latency(
                    state.subtask_index,
                    (
                        *context.assignment.processors_of(state.subtask_index),
                        cheapest.name,
                    ),
                )
                benefit = max(0.0, state.forecast - trial)
                price = prices.get(cheapest.name, 1.0)
                bids.append((benefit / price, -order, state, cheapest, trial))
            if not bids:
                break
            bid, _, state, processor, trial = max(bids, key=lambda b: b[:2])
            if bid <= 0.0:
                break
            context.assignment.add_replica(state.subtask_index, processor.name)
            state.added.append(processor.name)
            state.forecast = trial
            prices[processor.name] = prices.get(processor.name, 1.0) * (
                1.0 + self.congestion_increment
            )
            if all(s.satisfied for s in states):
                break
        return _plan_from_states(states, self.name)


@dataclass(frozen=True)
class FairShareAllocator:
    """DRF-style progressive filling across the cycle's candidates.

    Each candidate's *dominant share* is the larger of its two resource
    shares: processor slots (its replica count over the live cluster
    size) and network bytes (its incoming message's per-period wire
    payload over the whole task's wire payload at the current
    placement).  Progressive filling repeatedly grants the candidate
    with the smallest dominant share one replica on the least-utilized
    admissible processor, until every candidate's forecast fits its
    slack target or nothing admissible remains — so a replica-hungry
    stage cannot starve the others of placement opportunities.

    Attributes
    ----------
    slack_fraction:
        Figure 5's ``sl``, reused as the acceptance target.
    max_rounds:
        Hard cap on filling rounds per cycle.
    """

    slack_fraction: float = 0.2
    max_rounds: int = 64
    name: str = "fairshare"

    def __post_init__(self) -> None:
        if not 0.0 <= self.slack_fraction < 1.0:
            raise ConfigurationError(
                f"slack_fraction must be in [0, 1), got {self.slack_fraction}"
            )
        if self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )

    def _wire_bytes(self, context: AllocationContext, subtask_index: int) -> float:
        """Per-period wire bytes of a subtask's incoming replica messages."""
        if subtask_index <= 1:
            return 0.0
        message = context.task.message(subtask_index - 1)
        replicas = context.assignment.replica_count(subtask_index)
        share = context.d_tracks / replicas
        return replicas * message.wire_payload_bytes(share, context.d_tracks)

    def _dominant_share(
        self, context: AllocationContext, subtask_index: int, live_count: int
    ) -> float:
        """The DRF dominant share: max of CPU-slot and network share."""
        cpu_share = context.assignment.replica_count(subtask_index) / max(
            live_count, 1
        )
        total_bytes = sum(
            self._wire_bytes(context, subtask.index)
            for subtask in context.task.subtasks
        )
        if total_bytes <= 0.0:
            return cpu_share
        net_share = self._wire_bytes(context, subtask_index) / total_bytes
        return max(cpu_share, net_share)

    def allocate(self, context: AllocationContext) -> AllocationPlan:
        """Progressive filling in dominant-share order."""
        snapshot = context.utilization_snapshot()
        live_count = len(context.system.live_processors())
        states = _initial_states(context, self.slack_fraction)
        for _ in range(self.max_rounds):
            grantable = [
                (order, state)
                for order, state in enumerate(states)
                if not state.satisfied
                and context.available_processors(state.subtask_index)
            ]
            if not grantable:
                break
            _, state = min(
                grantable,
                key=lambda pair: (
                    self._dominant_share(
                        context, pair[1].subtask_index, live_count
                    ),
                    pair[0],
                ),
            )
            available = context.available_processors(state.subtask_index)
            target = _cheapest(available, snapshot)
            assert target is not None  # grantable guarantees availability
            context.assignment.add_replica(state.subtask_index, target.name)
            state.added.append(target.name)
            state.forecast = _current_forecast(context, state.subtask_index)
        return _plan_from_states(states, self.name)


@dataclass(frozen=True)
class OracleAllocator:
    """Upper baseline: Figure 5's growth loop with perfect CPU forecasts.

    Where the predictive policy forecasts execution latency through the
    profiled regression fit (eq. 3), the oracle reads the *ground
    truth*: each subtask's :class:`~repro.tasks.model.ServiceModel`
    evaluated at the per-replica share with ``rng=None`` (the
    contract's noise-free mean — the benchmark's
    ``repro.bench.ground_truth`` models), stretched by the hosting
    processor's utilization headroom ``demand / max(eps, 1 - u)`` — the
    processor-sharing slowdown the simulator actually applies.
    Communication still goes through the estimator's eqs. 4-6: the
    oracle is an oracle for CPU demand, the quantity the paper's
    regression chases.  Its combined metric C is the reference point of
    :func:`repro.experiments.metrics.regret_by_policy`.

    Attributes
    ----------
    slack_fraction:
        Figure 5's ``sl``, reused as the acceptance target.
    max_rounds:
        Hard cap on growth steps per candidate per cycle.
    """

    slack_fraction: float = 0.2
    max_rounds: int = 64
    name: str = "oracle"

    def __post_init__(self) -> None:
        if not 0.0 <= self.slack_fraction < 1.0:
            raise ConfigurationError(
                f"slack_fraction must be in [0, 1), got {self.slack_fraction}"
            )
        if self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )

    def _true_latency(
        self,
        context: AllocationContext,
        subtask_index: int,
        snapshot: dict[str, float],
    ) -> float:
        """Ground-truth worst replica latency at the current placement."""
        replicas = context.assignment.processors_of(subtask_index)
        share = context.d_tracks / len(replicas)
        service = context.task.subtask(subtask_index).service
        demand = service.demand(share, None)
        if subtask_index > 1:
            ecd = context.estimator.ecd_seconds(
                subtask_index - 1, share, context.total_periodic_tracks
            )
        else:
            ecd = 0.0
        worst = 0.0
        for name in replicas:
            utilization = min(snapshot.get(name, 0.0), 1.0)
            stretch = demand / max(_SATURATION_EPS, 1.0 - utilization)
            worst = max(worst, stretch + ecd)
        return max(0.0, worst)

    def allocate(self, context: AllocationContext) -> AllocationPlan:
        """Grow each candidate until the true forecast fits the budget."""
        snapshot = context.utilization_snapshot()
        states = _initial_states(
            context,
            self.slack_fraction,
            lambda context, index: self._true_latency(context, index, snapshot),
        )
        for state in states:
            subtask_index = state.subtask_index
            for _ in range(self.max_rounds):
                if state.satisfied:
                    break
                available = context.available_processors(subtask_index)
                target = _cheapest(available, snapshot)
                if target is None:
                    break
                context.assignment.add_replica(subtask_index, target.name)
                state.added.append(target.name)
                state.forecast = self._true_latency(
                    context, subtask_index, snapshot
                )
        return _plan_from_states(states, self.name)


register_policy("market", MarketAllocator)
register_policy("fairshare", FairShareAllocator)
register_policy("oracle", OracleAllocator)
