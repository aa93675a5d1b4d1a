"""Self-test of the benchmark: its checks must flag corrupted answers.

Usage (from the repository root): python3 perfbench/selftest.py

For each workload it runs one small item, confirms the check accepts the
real answer and rejects corrupted ones (a shifted diagram count, i + 1, a
perturbed coefficient). It also confirms the workloads' fixed input lists
match the library, that inputs depend only on the seed, that the tracer
reaches every namespace binding and restores it, that host-speed scaling
uses the chunks nearest each item, and that the quantile estimator is right
on evenly spread values. Exits 1 on any failure.
"""
from __future__ import annotations

import dataclasses
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import curvetrace as ct  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from run import hd_quantile  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BUDGET_PAIRS,
    DELTA_WORDS,
    GENUS,
    HEAVY_PAIRS,
    MULTICURVES,
    WORKLOADS,
    parse_text,
)

PROBLEMS = []


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        PROBLEMS.append(what)


def check_flags(s, name, item, corrupt):
    """The check passes the real answer and flags every corrupted one."""
    w = WORKLOADS[name]
    answer = w.run(ct, s, item)
    expect(w.check(ct, s, item, answer) is None, f"{name}: real answer passes")
    for label, bad in corrupt(answer):
        code = w.check(ct, s, item, bad)
        expect(code is not None, f"{name}: {label} is flagged ({code})")


def main() -> int:
    s = ct.make_surface(GENUS)
    one = ct.scalar_expression(GENUS, 1)

    check_flags(
        s, "thurston", ("a1", "b1b1a2"),
        lambda r: [
            ("count + 1", dataclasses.replace(r, diagram_count=r.diagram_count + 1)),
            ("count - 1", dataclasses.replace(r, diagram_count=r.diagram_count - 1)),
        ],
    )
    check_flags(
        s, "pairs", ((1,), (2, 3)),
        lambda i: [("i + 1", i + 1), ("i - 1", i - 1)],
    )
    check_flags(
        s, "twist", (2, "a1^1", "b1^1,a2^1"),
        lambda sides: [("right + 1", (sides[0], sides[1] + one))],
    )

    deltas = {c.word for c in ct.enumerate_simple_classes(s, 2)}
    listed = {ct.canonical_class(s, ct.parse_word(s, t)).word for t in DELTA_WORDS}
    expect(listed == deltas, "DELTA_WORDS are the simple classes of length <= 2")
    multicurves = {m for m in ct.enumerate_multicurves(s, 3) if not m.is_empty()}
    listed = {ct.parse_multicurve(s, t) for t in MULTICURVES}
    expect(listed == multicurves, "MULTICURVES are the multicurves of length <= 3")

    texts = [t for pair in HEAVY_PAIRS + BUDGET_PAIRS for t in pair]
    same = all(parse_text(t) == ct.parse_word(s, t) for t in texts)
    expect(same, "parse_text reads the fixed pairs as parse_word does")

    for w in WORKLOADS.values():
        n = w.item_count(1)
        same = w.inputs(random.Random(5), n) == w.inputs(random.Random(5), n)
        expect(same and n >= 100, f"{w.name}: {n} items, fixed by the seed")

    tracer = Tracer(ct)
    originals = (ct.algebra.intersection_number, ct.curves._pair_count)
    tracer.install()
    wrapped = all(
        getattr(mod, "intersection_number", None) is not originals[0]
        for mod in (ct, ct.curves, ct.algebra, ct.valuations, ct.mapping)
    )
    ct.intersection_number(s, ct.canonical_class(s, (1,)), ct.canonical_class(s, (2,)))
    layers = tracer.finish()
    restored = (ct.algebra.intersection_number, ct.curves._pair_count) == originals
    expect(wrapped, "tracer rebinds every copy of intersection_number")
    expect(restored, "tracer restores the original bindings")
    expect(set(layers) == set(METRICS), "tracer reports every per-layer metric")
    expect(layers["curves.self_s"] > 0, "tracer attributes self time to curves")

    host = HostSpeed()
    host.marks = [float(k) for k in range(40)]
    host.durations = [REFERENCE_S * (2 if k < 20 else 1) for k in range(40)]
    scaled = host.scaled([2.0, 30.0], [0.5, 0.5])
    expect(scaled == [0.25, 0.5], "host speed scales each item by its nearest chunks")

    evenly = list(range(1001))
    expect(
        abs(hd_quantile(evenly, 0.5) - 500) < 1e-6
        and abs(hd_quantile(evenly, 0.9) - 900) < 1,
        "Harrell-Davis quantiles of 0..1000 are 500 and 900",
    )

    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
