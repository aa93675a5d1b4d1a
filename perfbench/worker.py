"""Run one workload batch in this (fresh) interpreter and print a JSON result.

Usage: python3 perfbench/worker.py --workload NAME --seed N --items K --trace 0|1

The batch is fed one item at a time from one thread (a closed loop with one
client). Only the items are timed: the correctness checks run after the
timed phase, so they cannot warm caches for later items. Host-speed
reference chunks (hostspeed.py) run between items, outside the item times.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--items", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import curvetrace as ct
    from hostspeed import HostSpeed
    from tracer import Tracer
    from workloads import GENUS, WORKLOADS

    workload = WORKLOADS[args.workload]
    items = workload.inputs(random.Random(args.seed), args.items)
    tracer = Tracer(ct) if args.trace else None
    if tracer:
        tracer.install()

    s = ct.make_surface(GENUS)
    host = HostSpeed()
    host.chunk()
    answers, errors, starts, times = [], [], [], []
    for item in items:
        t0 = perf_counter()
        try:
            answer, error = workload.run(ct, s, item), None
        except ct.CurvetraceError as exc:
            answer, error = None, f"{type(exc).__name__}: {exc}"
        starts.append(t0)
        times.append(perf_counter() - t0)
        answers.append(answer)
        errors.append(error)
        host.after_item(times[-1])
    host.chunk()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = tracer.finish() if tracer else None

    t0 = perf_counter()
    failures = {}  # failure code -> count
    for item, answer, error in zip(items, answers, errors):
        code = error or workload.check(ct, s, item, answer)
        if code:
            failures[code] = failures.get(code, 0) + 1
    check_s = perf_counter() - t0

    print(
        json.dumps(
            {
                "raw_wall_s": sum(times),
                "item_s": host.scaled(starts, times),
                "host_speed": host.speed(),
                "attempted": len(items),
                "failures": failures,
                "unexpected": sum(
                    n for c, n in failures.items() if not workload.is_known(c)
                ),
                "peak_rss_mb": peak_rss_mb,
                "check_s": check_s,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
