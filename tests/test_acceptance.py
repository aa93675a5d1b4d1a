"""The acceptance suites cheap enough for tier-1, run as tests so a FAIL
verdict breaks the build.

thurston and discreteness take several seconds each and are run through
curvetrace.acceptance.run_suite instead; CI runs each as its own step.

The package's own invariants raise typed errors rather than assert, so they
hold under python -O as well, and only curvetrace.acceptance imports numpy.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvetrace.acceptance import run_suite


@pytest.mark.parametrize(
    "name",
    [
        "presentation",
        "basis",
        "valuation",
        "complement",
        "curv",
        "actions",
        "twist-invariance",
    ],
)
def test_acceptance_suite_passes(name):
    line = run_suite(name).line()
    assert line.startswith("PASS"), line


def test_package_has_no_assert_statements():
    package = Path(__file__).resolve().parents[1] / "src" / "curvetrace"
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_core_runs_without_numpy():
    # a fresh interpreter, so no other test's import of numpy counts
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "tests" / "core_without_numpy.py")],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
