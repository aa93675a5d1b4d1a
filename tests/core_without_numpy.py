"""Import every module of the package, run the core library once, and fail
if numpy was imported.

No module of the package needs numpy; only the test oracles use it.  From
the repository root:

    PYTHONPATH=src python tests/core_without_numpy.py

It counts i(a1A2B2B2, b1b2a2b2a2) at genus 2, a pair of self-crossing
classes whose built diagrams (9 crossings on the direct drawings, 7 on the
one seed pair) miss its Goldman bracket floor, 5, so the count takes one
exhaustive slot search.  It also checks one Thurston
pair and multiplies two disjoint curves into their multicurve.
"""
import importlib
import pkgutil
import sys

import curvetrace as ct

for module in pkgutil.iter_modules(ct.__path__, "curvetrace."):
    importlib.import_module(module.name)

s = ct.make_surface(2)


def cls(text):
    return ct.canonical_class(s, ct.parse_word(s, text))


def basis(text):
    return ct.basis_expression(ct.parse_multicurve(s, text))


failures = []
if ct.intersection_number(s, cls("a1A2B2B2"), cls("b1b2a2b2a2")) != 5:
    failures.append("i(a1A2B2B2, b1b2a2b2a2) is not 5")
if not ct.thurston_max_check(s, cls("b1"), ct.parse_word(s, "a1b2A1a2")).ok:
    failures.append("thurston_max_check(b1, a1b2A1a2) does not match")
if ct.multiply_expressions(s, basis("a1"), basis("a2")) != basis("a1,a2"):
    failures.append("t(a1) t(a2) is not the multicurve a1,a2")
if "numpy" in sys.modules:
    failures.append("numpy was imported")
if failures:
    sys.exit("; ".join(failures))
print("core ran without numpy")
