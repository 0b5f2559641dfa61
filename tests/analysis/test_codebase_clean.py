"""Tier-1 gate: the shipped source tree must lint clean.

This is the enforcement point for the whole analysis subsystem: if a
wall-clock call, an unseeded RNG, a magic unit conversion or a layering
breach lands anywhere in ``src/repro``, this test fails with the full
lint report in the assertion message.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import repro
from repro.analysis import lint_paths, render_text

SRC_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = SRC_ROOT.parent.parent


def test_source_tree_lints_clean():
    violations, n_files = lint_paths([SRC_ROOT])
    report = render_text(violations, n_files)
    assert not violations, f"static-analysis violations in src/repro:\n{report}"
    # Sanity: the walk actually visited the package, not an empty dir.
    assert n_files > 50


def test_examples_lint_clean():
    """Shipped examples stay on the repro.api facade (LAY-FACADE)."""
    trees = [REPO_ROOT / "examples", REPO_ROOT / "scripts"]
    violations, n_files = lint_paths([p for p in trees if p.is_dir()])
    report = render_text(violations, n_files)
    assert not violations, f"static-analysis violations in examples:\n{report}"
    assert n_files >= 8


def test_project_passes_actually_ran():
    """The clean run above must include the flow-aware passes.

    Guards against the project passes silently short-circuiting (e.g. a
    renamed entry point resolving to nothing): the real tree must yield
    a non-trivial worker-reachable set containing the known hot path
    into the estimator cache.
    """
    from repro.analysis import CallGraph, build_project, load_contract
    from repro.analysis.engine import iter_python_files
    from repro.analysis.model import load_module

    contract = load_contract()
    infos = [load_module(p) for p in iter_python_files([SRC_ROOT])]
    project = build_project(infos)
    graph = CallGraph(project)
    reachable = graph.reachable_from(contract.entry_points)
    assert "repro.parallel.jobs.run_job" in reachable
    assert "repro.experiments.runner.run_experiment" in reachable
    assert "repro.experiments.estimator_cache.get_estimator" in reachable
    assert len(reachable) > 50


def test_gate_catches_injected_conc_violation(tmp_path):
    """A seeded worker-reachable mutation must fail the gate end to end."""
    staged = tmp_path / "repro" / "parallel"
    staged.mkdir(parents=True)
    (staged / "jobs.py").write_text(
        "LEAK = {}\n"
        "def run_job(spec):\n"
        "    LEAK[spec] = 1\n"
    )
    violations, _ = lint_paths([tmp_path / "repro"])
    assert any(v.rule_id == "CONC-GLOBAL-MUT" for v in violations)


def test_gate_catches_injected_violation(tmp_path):
    """The gate must fail if a determinism breach is seeded into sim code.

    We copy one real sim module aside, inject a ``time.time()`` call, and
    check the same driver the gate uses reports it — proof the clean run
    above is meaningful and not vacuous.
    """
    staged = tmp_path / "repro" / "sim"
    staged.mkdir(parents=True)
    shutil.copy(SRC_ROOT / "sim" / "engine.py", staged / "engine.py")
    source = (staged / "engine.py").read_text()
    assert "time.time()" not in source
    (staged / "engine.py").write_text(
        "import time\n_T0 = time.time()\n" + source
    )
    violations, _ = lint_paths([tmp_path / "repro"])
    assert any(v.rule_id == "DET-TIME" for v in violations)
