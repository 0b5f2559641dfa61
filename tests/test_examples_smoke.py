"""Smoke tests for the example scripts.

Every example must at least compile and expose a ``main`` entry point.
The quickstart (the one a new user runs first) and the custom pipeline
(the worked example of writing a per-candidate policy) are executed end
to end.  The heavier examples are exercised by the manual/e2e flow and
the bench suite covers their underlying APIs.
"""

from __future__ import annotations

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_populated():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path, tmp_path):
    py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_defines_main(path):
    source = path.read_text()
    assert "def main(" in source
    assert '__name__ == "__main__"' in source
    # Every example carries a module docstring with a Run: line.
    assert source.lstrip().startswith(('"""', '#!'))
    assert "Run:" in source


def test_quickstart_runs_end_to_end():
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert "combined metric C" in completed.stdout
    assert "Final replica placement" in completed.stdout


def test_custom_pipeline_runs_end_to_end():
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "custom_pipeline.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert "deadlines missed" in completed.stdout
    assert "(cap 3 per subtask)" in completed.stdout
    assert "Final placement" in completed.stdout
