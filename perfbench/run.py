"""curvetrace benchmark: run one workload by name with a seed.

Usage (from the repository root):

    python3 perfbench/run.py --workload thurston --seed 1 --seconds 20 --trace 0

Each run builds one batch of items from the seed and runs it REPEATS times,
each time in a fresh worker process, so every module-level cache starts
cold. Item times are scaled to the speed of a reference host by timing a
fixed reference chunk between items (hostspeed.py), because the shared host
changes speed for spells longer than a run. Each repetition does the same
work, so an item's time is taken as its median over the repetitions.
Set-up is probed in fresh interpreters between the repetitions, scaled the
same way, and reported as the median. With
--trace 1 one more repetition runs traced, and the run reports the
per-layer metrics and the tracing overhead. The summary lines name every
metric with its unit; the last line is one JSON object with the keys
correct, attempted, failed and metrics. workloads.json documents the
workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import NEAREST, HostSpeed  # noqa: E402
from tracer import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPEATS = 3
SETUP_PROBES = 3  # per repetition
WORKER_TIMEOUT_S = 60
# Workers run with a fixed hash seed: set iteration order steers the search
# in the words layer, so the same items then always do the same work.
HASH_SEED = "0"
# Set-up as users pay it: interpreter start, import, and one surface.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "import curvetrace\n"
    "curvetrace.make_surface(2)\n"
    "print(time.monotonic())\n"
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def probe_setup(env: dict) -> float:
    """Time from process start through import and make_surface(2), scaled
    by the host speed of reference chunks run just before and after it."""
    host = HostSpeed()
    for _ in range(NEAREST // 2):
        host.chunk()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    elapsed = float(proc.stdout.split()[-1]) - start
    for _ in range(NEAREST // 2):
        host.chunk()
    return elapsed * host.speed()


def run_worker(workload: str, seed: int, items: int, trace: int, env: dict) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--items", str(items), "--trace", str(trace),
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def hd_quantile(values: list, p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile (Harrell and Davis, 1982).

    A weighted mean of all order statistics, with the weights a Beta(p(n+1),
    (1-p)(n+1)) distribution gives each rank's interval. Item times cluster
    with gaps between the clusters, and a single order statistic jumps across
    a gap when one item changes rank; this estimate moves smoothly.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):
        # midpoint rule over the rank's interval [i/n, (i+1)/n]
        us = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(
            math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_beta)
            for u in us
        ))
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def end_to_end(results: list, setup: list) -> dict:
    """Median scaled time per item over the repetitions, then the batch's
    metrics."""
    times_ms = [
        statistics.median(ts) * 1e3 for ts in zip(*(r["item_s"] for r in results))
    ]
    return {
        "wall_s": {"value": sum(times_ms) / 1e3, "unit": "s"},
        "item_ms_p50": {"value": hd_quantile(times_ms, 0.5), "unit": "ms"},
        "item_ms_p90": {"value": hd_quantile(times_ms, 0.9), "unit": "ms"},
        "peak_rss_mb": {
            "value": statistics.median(r["peak_rss_mb"] for r in results),
            "unit": "MB",
        },
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def _failed(result: dict) -> int:
    return sum(result["failures"].values())


def _with_walls(result: dict, repetitions: list) -> dict:
    def each(f):
        return [round(f(r), 3) for r in repetitions]

    return dict(
        result,
        walls=each(lambda r: sum(r["item_s"])),
        raw_walls=each(lambda r: r["raw_wall_s"]),
        speeds=each(lambda r: r["host_speed"]),
    )


def _summary(label: str, result: dict, metrics: dict):
    failed = _failed(result)
    print(
        f"[{label}] per repetition: scaled batch s {result['walls']},"
        f" raw batch s {result['raw_walls']}, host speed {result['speeds']}"
    )
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(
        f"  {'failed_share':<28} {failed / result['attempted']:.6g} share"
        f" ({failed}/{result['attempted']} items; by code {result['failures']};"
        f" unexpected {result['unexpected']}; check {result['check_s']:.3g} s)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "curvetrace", "__init__.py")):
        print("perfbench: no src/curvetrace package next to perfbench/", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    items = workload.item_count(args.seconds / REPEATS)
    env = _child_env()
    print(
        "env " + json.dumps({
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "PYTHONHASHSEED": HASH_SEED,
            "workload": args.workload,
            "items": items,
            "repeats": REPEATS,
            "loop": "closed",
            "clients": 1,
            "seconds": args.seconds,
            "trace": args.trace,
        })
    )
    try:
        probe_setup(env)  # writes the bytecode caches; not counted
        setup, plain = [], []
        for _ in range(REPEATS):
            setup.extend(probe_setup(env) for _ in range(SETUP_PROBES))
            plain.append(run_worker(args.workload, args.seed, items, 0, env))
        first = plain[0]
        metrics = end_to_end(plain, setup)
        _summary("untraced", _with_walls(first, plain), metrics)
        results = list(plain)
        if args.trace:
            traced = run_worker(args.workload, args.seed, items, 1, env)
            results.append(traced)
            metrics = {
                name: {"value": value, "unit": METRICS[name]}
                for name, value in traced["layers"].items()
            }
            metrics["trace.overhead_ratio"] = {
                "value": sum(traced["item_s"])
                / statistics.median(sum(r["item_s"]) for r in plain),
                "unit": "ratio",
            }
            _summary("traced", _with_walls(traced, [traced]), metrics)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps({
            "correct": all(r["unexpected"] == 0 for r in results),
            "attempted": first["attempted"],
            "failed": _failed(first),
            "metrics": metrics,
        })
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
