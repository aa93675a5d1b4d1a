"""The acceptance suites cheap enough for tier-1, run as tests so a FAIL
verdict breaks the build.

thurston and discreteness take several seconds each and are run through
curvetrace.acceptance.run_suite instead; CI runs each as its own step.

presentation must also be able to fail: with one cell move of the genus-2
words tables rotated, it gives FAIL.  The package's own invariants raise
typed errors rather than assert, so they hold under python -O as well, no
module of the package imports numpy, and none imports a name it never reads.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvetrace import algebra, curves, mapping, valuations
from curvetrace.acceptance import SUITES, run_suite
from curvetrace.errors import BadArgument, BadValue, CurvetraceError
from curvetrace.words import canonical_class, homology_class, make_surface, parse_word


@pytest.mark.parametrize(
    "name", [name for name in SUITES if name not in ("thurston", "discreteness")]
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


def test_package_has_one_dataclass():
    # value types are words._record tuples, whose classes generate no code
    # at import; ThurstonReport stays a dataclass because the benchmark's
    # self-test corrupts reports with dataclasses.replace
    package = Path(__file__).resolve().parents[1] / "src" / "curvetrace"
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.name}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
    ]
    assert found == ["valuations.py:ThurstonReport"]


def test_package_modules_read_every_name_they_import():
    # __init__.py imports to re-export, and __future__ imports bind flags
    package = Path(__file__).resolve().parents[1] / "src" / "curvetrace"
    sources = sorted(set(package.glob("*.py")) - {package / "__init__.py"})
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in read
        ]
    assert found == []


def test_out_of_range_values_raise_a_typed_value_error():
    # every raise of a bad value in the package, each still a ValueError
    s = make_surface(2)
    a1 = canonical_class(s, parse_word(s, "a1"))
    lam = valuations.make_lamination(s, {a1: 1})
    calls = (
        lambda: homology_class(s, (1,), ring="Q"),
        lambda: valuations.make_lamination(s, {a1: -1}),
        lambda: valuations.scale_lamination(lam, 0),
        lambda: valuations.check_positive_up_to(s, lam, 0),
        lambda: valuations.check_strict_up_to(s, lam, 0),
        lambda: algebra.make_multicurve(s, {a1: 0}),
        lambda: algebra.enumerate_multicurves(s, -1),
        lambda: algebra.basis_rank_check(s, [algebra.make_multicurve(s, {a1: 1})], 0, 1),
        lambda: mapping.make_sign_character(s, (0, 2, 0, 0)),
        lambda: curves.enumerate_simple_classes(s, 0),
        lambda: curves.enumerate_classes(s, -1),
        lambda: run_suite("nonesuch"),
    )
    for call in calls:
        with pytest.raises(BadValue) as info:
            call()
        assert isinstance(info.value, CurvetraceError)
        assert isinstance(info.value, ValueError)
    # and no module raises a builtin error by name
    package = Path(__file__).resolve().parents[1] / "src" / "curvetrace"
    raised = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) in ("ValueError", "TypeError")
    ]
    assert raised == []


def test_counts_and_bounds_of_the_wrong_type_or_sign_are_typed():
    # each raised a bare TypeError, and samples=-2 returned a report of no
    # samples that read ok
    s = make_surface(2)
    a1 = canonical_class(s, parse_word(s, "a1"))
    lam = valuations.make_lamination(s, {a1: 1})
    mc = algebra.make_multicurve(s, {a1: 1})
    t1 = mapping.twist_generator(s, 1)
    for call in (
        lambda: algebra.basis_rank_check(s, [mc], "a", 1),
        lambda: mapping.verify_algebra_automorphism(s, t1, samples="a"),
        lambda: valuations.check_positive_up_to(s, lam, "a"),
        lambda: valuations.check_strict_up_to(s, lam, "a"),
    ):
        with pytest.raises(BadArgument):
            call()
    with pytest.raises(BadValue, match="^samples must be at least 0, got -2$"):
        mapping.verify_algebra_automorphism(s, t1, samples=-2)


# rotate the genus-2 cell move of the relator's first LENGTH letters by one
# letter, after the tables' own checks have run, then run presentation
_MUTATED_PRESENTATION = """
import sys
from curvetrace.acceptance import run_suite
from curvetrace.words import _tables, make_surface
table = _tables(2).cell_moves
factor = make_surface(2).relator[: int(sys.argv[1])]
(move,) = table[factor]
table[factor] = (move[1:] + move[:1],)
print(run_suite("presentation").line())
"""


def _run_python(*args):
    # a fresh interpreter, so no other test's imports or tables count
    root = Path(__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *args],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_core_runs_without_numpy():
    done = _run_python("tests/core_without_numpy.py")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("length", [4, 5], ids=["half-swap", "dehn"])
def test_presentation_fails_with_a_rotated_cell_move(length):
    # a1b1A1B1 -> b2a2B2A2 is a half swap, a1b1A1B1a2 -> b2a2B2 a Dehn
    # replacement; each rotated puts some words in a wrong class
    done = _run_python("-c", _MUTATED_PRESENTATION, str(length))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("FAIL presentation"), done.stdout
    assert not done.stdout.rstrip().endswith("mismatches 0"), done.stdout
