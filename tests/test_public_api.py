"""The public-surface contract: snapshot, re-exports, removed names.

``repro.api.__all__`` is the compatibility promise of the distribution.
This suite pins it against a checked-in snapshot so that any addition
or removal shows up as an explicit diff in review — update
``tests/public_api_snapshot.txt`` deliberately, in the same commit as
the surface change::

    PYTHONPATH=src python -c "import repro.api; \\
        print('\\n'.join(sorted(repro.api.__all__)))" \\
        > tests/public_api_snapshot.txt
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

import repro
import repro.api

SNAPSHOT_PATH = Path(__file__).parent / "public_api_snapshot.txt"


class TestSnapshot:
    def test_surface_matches_snapshot(self):
        snapshot = SNAPSHOT_PATH.read_text().split()
        current = sorted(repro.api.__all__)
        assert current == snapshot, (
            "repro.api.__all__ drifted from tests/public_api_snapshot.txt; "
            "if the change is intentional, regenerate the snapshot (see "
            "module docstring)"
        )

    def test_no_duplicates(self):
        assert len(repro.api.__all__) == len(set(repro.api.__all__))

    def test_every_name_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None, name

    def test_root_package_reexports_the_facade(self):
        for name in repro.api.__all__:
            assert getattr(repro, name) is getattr(repro.api, name), name
        assert set(repro.__all__) == {*repro.api.__all__, "__version__"}


class TestVersion:
    def test_pyproject_takes_the_version_from_the_package(self):
        import tomllib

        pyproject = tomllib.loads(
            (Path(__file__).parents[1] / "pyproject.toml").read_text()
        )
        assert "version" not in pyproject["project"]
        assert "version" in pyproject["project"]["dynamic"]
        dynamic = pyproject["tool"]["setuptools"]["dynamic"]
        assert dynamic["version"] == {"attr": "repro.__version__"}


class TestFitEstimator:
    def test_baseline_and_task_are_exclusive(self):
        from repro.api import BaselineConfig, ConfigurationError, aaw_task

        with pytest.raises(ConfigurationError):
            repro.api.fit_estimator(BaselineConfig(), task=aaw_task())

    def test_cache_dir_requires_baseline_mode(self, tmp_path):
        from repro.api import ConfigurationError, aaw_task

        with pytest.raises(ConfigurationError):
            repro.api.fit_estimator(task=aaw_task(), cache_dir=tmp_path)

    def test_profile_kwargs_require_task_mode(self):
        from repro.api import ConfigurationError

        with pytest.raises(ConfigurationError):
            repro.api.fit_estimator(u_grid=(0.0, 0.2))

    def test_baseline_mode_hits_the_shared_cache(self, baseline):
        from repro.experiments import estimator_cache

        first = repro.api.fit_estimator(baseline, repetitions=1)
        assert repro.api.fit_estimator(baseline, repetitions=1) is first
        key = estimator_cache.cache_key(baseline, repetitions=1)
        assert estimator_cache._MEMORY_CACHE[key] is first


#: Every spelling the 1.x releases served through a DeprecationWarning
#: alias; 2.0 removed them all (``[deprecated] names`` is empty).
REMOVED_IN_2_0 = [
    "repro.build_estimator",
    "repro.get_default_estimator",
    "repro.bench.build_estimator",
    "repro.experiments.get_default_estimator",
    "repro.experiments.runner.get_default_estimator",
    "repro.core.allocator.AllocationOutcome",
    "repro.core.allocator.get_policy",
    "repro.core.allocator.register_policy",
    "repro.core.allocator.registered_policies",
    "repro.api.VectorizedEngine",
    "repro.VectorizedEngine",
    "repro.api.UtilizationIndex",
    "repro.UtilizationIndex",
    "repro.api.IndexStats",
    "repro.IndexStats",
    "repro.api.get_allocator",
    "repro.get_allocator",
    "repro.api.AllocationRequest",
    "repro.AllocationRequest",
]


class TestDeprecatedNames:
    @pytest.mark.parametrize("spelling", REMOVED_IN_2_0)
    def test_removed_in_2_0(self, spelling):
        import importlib

        module_name, attr = spelling.rsplit(".", 1)
        if module_name == "repro.core.allocator":
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module_name)
            return
        module = importlib.import_module(module_name)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(AttributeError):
                getattr(module, attr)

    def test_shipped_contract_declares_no_deprecated_names(self):
        from repro.analysis.layering import load_contract

        assert load_contract().deprecated == frozenset()

    def test_old_names_left_the_facade(self):
        assert "build_estimator" not in repro.api.__all__
        assert "get_default_estimator" not in repro.api.__all__

    def test_utilization_index_left_the_cluster_package(self):
        import repro.cluster

        assert not hasattr(repro.cluster, "UtilizationIndex")
        assert not hasattr(repro.cluster, "IndexStats")

    def test_as_allocator_left_with_no_alias(self):
        assert "as_allocator" not in repro.api.__all__
        with pytest.raises(AttributeError):
            repro.api.as_allocator
        with pytest.raises(AttributeError):
            repro.as_allocator

    def test_shard_dispatch_left_with_no_alias(self):
        import repro.parallel
        from repro.experiments import estimator_cache

        for name in ("ShardPlan", "plan_shards", "run_sharded"):
            assert name not in repro.api.__all__
            for module in (repro, repro.api, repro.parallel):
                assert not hasattr(module, name), (module, name)
        assert not hasattr(repro.parallel, "run_shard")
        assert not hasattr(estimator_cache, "warm")

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.nonsense_name
        with pytest.raises(AttributeError):
            repro.api.nonsense_name

    def test_supported_deep_spellings_stay_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.bench.profiler import build_estimator  # noqa: F401
            from repro.experiments.estimator_cache import (  # noqa: F401
                get_estimator,
            )
