"""The cheap acceptance suites, run as tests so a FAIL verdict breaks the build.

thurston (a known FAIL), discreteness and basis take from 8 s to over a
minute each and are run through curvetrace.acceptance.run_suite instead.
"""
import pytest

from curvetrace.acceptance import run_suite


@pytest.mark.parametrize(
    "name",
    ["presentation", "valuation", "complement", "curv", "actions", "twist-invariance"],
)
def test_acceptance_suite_passes(name):
    line = run_suite(name).line()
    assert line.startswith("PASS"), line
