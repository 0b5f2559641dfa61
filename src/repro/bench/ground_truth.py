"""Ground-truth CPU service demands of the synthetic benchmark.

These models answer "how many CPU seconds does subtask ``st`` need to
process ``d`` tracks" — the quantity the paper's real benchmark embodies
in code.  They are *only* consumed by the simulator (executor, profiler);
the resource-management algorithms see nothing but measurements.

The functional form is a through-origin quadratic in data size (matching
the curvature visible in the paper's Figs. 2-4) expressed in the paper's
regression units:

``demand_ms(d) = q2 * (d/100)^2 + q1 * (d/100)``

with a small fixed dispatch floor and multiplicative log-normal noise
modelling run-to-run variation.  Note the *demand* does not depend on
CPU utilization — the latency stretch at high utilization emerges from
the processor-sharing contention in :mod:`repro.cluster.processor`,
exactly as on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TaskModelError
from repro.units import ms_to_s, tracks_to_regression_units


@dataclass(frozen=True)
class QuadraticServiceModel:
    """CPU demand quadratic in data size.

    Attributes
    ----------
    q2_ms:
        Coefficient of ``(d/100)^2`` in milliseconds.
    q1_ms:
        Coefficient of ``(d/100)`` in milliseconds.
    floor_ms:
        Minimum demand (fixed dispatch/setup cost), default 0.2 ms.
    noise_sigma:
        Log-normal sigma of the multiplicative noise; 0 disables noise.
    """

    q2_ms: float
    q1_ms: float
    floor_ms: float = 0.2
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.q2_ms < 0.0 or self.q1_ms < 0.0:
            raise TaskModelError(
                f"demand coefficients must be non-negative, got "
                f"q2={self.q2_ms}, q1={self.q1_ms}"
            )
        if self.floor_ms <= 0.0:
            raise TaskModelError(f"floor must be positive, got {self.floor_ms}")
        if self.noise_sigma < 0.0:
            raise TaskModelError(f"noise sigma must be >= 0, got {self.noise_sigma}")

    def mean_demand_seconds(self, d_tracks: float) -> float:
        """Noise-free demand in seconds."""
        if d_tracks < 0.0:
            raise TaskModelError(f"negative data size {d_tracks}")
        d_h = tracks_to_regression_units(d_tracks)
        return ms_to_s(max(self.floor_ms, self.q2_ms * d_h * d_h + self.q1_ms * d_h))

    def demand(self, d_tracks: float, rng: np.random.Generator | None = None) -> float:
        """Sampled demand in seconds (implements
        :class:`repro.tasks.model.ServiceModel`)."""
        base = self.mean_demand_seconds(d_tracks)
        if rng is None or self.noise_sigma == 0.0:
            return base
        return base * float(rng.lognormal(mean=0.0, sigma=self.noise_sigma))


def LinearServiceModel(
    q1_ms: float, floor_ms: float = 0.2, noise_sigma: float = 0.0
) -> QuadraticServiceModel:
    """A demand linear in data size (quadratic model with ``q2 = 0``)."""
    return QuadraticServiceModel(
        q2_ms=0.0, q1_ms=q1_ms, floor_ms=floor_ms, noise_sigma=noise_sigma
    )
