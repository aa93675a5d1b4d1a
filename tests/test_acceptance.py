"""The acceptance suites cheap enough for tier-1, run as tests so a FAIL
verdict breaks the build.

thurston (a known FAIL) and discreteness take tens of seconds each and are
run through curvetrace.acceptance.run_suite instead; CI runs discreteness
as its own step.
"""
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
