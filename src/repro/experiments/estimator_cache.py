"""Process-shared cache of profiled + fitted timing estimators.

Profiling the regression models (paper §4.2.1) is the expensive step of
every experiment — ~1 s against the simulated hardware versus ~20 ms
for the experiment itself — so fits are cached at two levels:

* **in memory**, keyed by the configuration fields that shape the fit
  (noise, bandwidth, overhead, profiling seed, repetitions);
* **on disk** (optional), as the JSON produced by
  :mod:`repro.regression.serialization`, so *other processes* — the
  :mod:`repro.parallel` worker pool in particular — can load a fit by
  key instead of re-profiling.

The parallel runner relies on the disk layer for determinism as well as
speed: the parent fits once, :func:`warm` persists the models, and every
worker loads the identical coefficients (JSON float round-trips are
exact), so a parallel campaign is bit-identical to a serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.bench.app import aaw_task
from repro.bench.profiler import build_estimator
from repro.errors import ConfigurationError
from repro.experiments.config import BaselineConfig
from repro.regression.estimator import TimingEstimator
from repro.regression.serialization import load_models, save_models

#: In-process cache, keyed by :func:`cache_key`; emptied by
#: :func:`clear_memory_cache`.
_MEMORY_CACHE: dict[tuple, TimingEstimator] = {}


@dataclass
class CacheStats:
    """Counters for observing cache behaviour (tests, diagnostics)."""

    memory_hits: int = 0
    disk_hits: int = 0
    fits: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.memory_hits = self.disk_hits = self.fits = 0


#: Module-wide counters; reset with ``STATS.reset()``.
STATS = CacheStats()


def cache_key(baseline: BaselineConfig, repetitions: int = 2) -> tuple:
    """The tuple of configuration fields that shape a fitted model set."""
    return (
        round(baseline.noise_sigma, 6),
        round(baseline.bandwidth_bps, 3),
        round(baseline.message_overhead_bytes, 3),
        baseline.seed,
        repetitions,
    )


def cache_path(cache_dir: str | Path, key: tuple) -> Path:
    """Deterministic JSON file name for a cache key."""
    stem = "_".join(str(part).replace(".", "p") for part in key)
    return Path(cache_dir) / f"models_{stem}.json"


def _ensure_parent(path: Path) -> None:
    """Create ``path``'s directory, rejecting non-directory cache dirs."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigurationError(
            f"cache dir {str(path.parent)!r} is not a usable directory"
        ) from exc


def clear_memory_cache() -> None:
    """Drop every in-process entry (disk files are left alone)."""
    _MEMORY_CACHE.clear()


def get_estimator(
    baseline: BaselineConfig,
    cache_dir: str | Path | None = None,
    repetitions: int = 2,
) -> TimingEstimator:
    """The fitted estimator for ``baseline``: memory, then disk, then fit.

    On a memory miss with ``cache_dir`` set, the JSON produced by an
    earlier process is loaded instead of re-profiling; on a full miss
    the models are fitted and (with ``cache_dir``) persisted for other
    processes.
    """
    # The memo cache and hit counters below are deliberate per-process
    # state: entries are keyed on the full config, so a worker's copy
    # can only ever hold values byte-identical to what the parent would
    # compute, and the counters are observability-only.  Safe on worker
    # paths, hence the CONC-GLOBAL-MUT suppressions (see
    # docs/static_analysis.md, "Reviewed baselines").
    key = cache_key(baseline, repetitions)
    cached = _MEMORY_CACHE.get(key)
    if cached is not None:
        STATS.memory_hits += 1  # repro: noqa CONC-GLOBAL-MUT
        return cached

    task = aaw_task(
        period=baseline.period,
        deadline=baseline.deadline,
        noise_sigma=baseline.noise_sigma,
    )
    path: Path | None = None
    if cache_dir is not None:
        path = cache_path(cache_dir, key)
        if path.exists():
            latency_models, comm_model = load_models(path)
            estimator = TimingEstimator(
                task=task, latency_models=latency_models, comm_model=comm_model
            )
            _MEMORY_CACHE[key] = estimator  # repro: noqa CONC-GLOBAL-MUT
            STATS.disk_hits += 1  # repro: noqa CONC-GLOBAL-MUT
            return estimator

    estimator = build_estimator(
        task,
        repetitions=repetitions,
        seed=baseline.seed,
        bandwidth_bps=baseline.bandwidth_bps,
        overhead_bytes=baseline.message_overhead_bytes,
    )
    STATS.fits += 1  # repro: noqa CONC-GLOBAL-MUT
    if path is not None:
        _ensure_parent(path)
        save_models(path, estimator.latency_models, estimator.comm_model)
    _MEMORY_CACHE[key] = estimator  # repro: noqa CONC-GLOBAL-MUT
    return estimator


def warm(
    baseline: BaselineConfig,
    cache_dir: str | Path,
    estimator: TimingEstimator | None = None,
    repetitions: int = 2,
) -> Path:
    """Ensure the disk cache holds a fit for ``baseline``; return its path.

    With ``estimator`` given, *those* models are persisted under the
    baseline's key (so workers reuse a caller-supplied fit exactly);
    otherwise a fit is obtained via :func:`get_estimator` (which may
    itself hit either cache layer).  Called by the parallel fan-out
    sites before dispatching workers.
    """
    key = cache_key(baseline, repetitions)
    path = cache_path(cache_dir, key)
    if estimator is not None:
        # Overwrite unconditionally: workers must load exactly these
        # models even if an older fit sits under the same key.
        _MEMORY_CACHE[key] = estimator
        _ensure_parent(path)
        save_models(path, estimator.latency_models, estimator.comm_model)
        return path
    fitted = get_estimator(baseline, cache_dir=cache_dir, repetitions=repetitions)
    if not path.exists():
        # A memory hit skips the disk write; workers still need the file.
        _ensure_parent(path)
        save_models(path, fitted.latency_models, fitted.comm_model)
    return path
