"""Host-speed reference for the benchmark's item times.

The shared 2-vCPU host this benchmark was built on runs the same code up to
1.6 times slower, in wall and CPU time alike, in spells of seconds to a
minute. A worker therefore runs a short fixed reference chunk between items,
about every CHUNK_EVERY_S of item time (a burst of chunks after a long item),
and scales each item's time by REFERENCE_S over the median duration of the
chunks nearest to it. A scaled time reads as seconds on a host where one
chunk takes REFERENCE_S.

The chunk is pure-Python work of the kind curvetrace does (small tuples,
dicts, sets, sorting, Fractions, integer arithmetic) and never touches
curvetrace, so a change to the package moves the scaled times exactly as it
moves the raw ones. The garbage collector is off during a chunk, so a collection of the
package's caches never lands in it.
"""
from __future__ import annotations

import bisect
import gc
import random
import statistics
from fractions import Fraction
from time import perf_counter

from workloads import cyclic_key, random_word

# Median chunk duration on the reference host (2 vCPU, Python 3.11) in a
# fast spell; it only sets the scale of the reported times.
REFERENCE_S = 0.002
CHUNK_EVERY_S = 0.05
NEAREST = 10  # chunks whose median gives an item's host speed

_WORDS = [random_word(random.Random(11), 7) for _ in range(60)]


def _chunk_work():
    # four parts of about equal weight: canonical rotations into a dict,
    # a set of rotations sorted, Fraction sums and integer arithmetic
    seen = {}
    for word in _WORDS:
        key = cyclic_key(word)
        seen[key] = seen.get(key, 0) + 1
    rotations = set()
    for word in _WORDS:
        rotations |= {word[i:] + word[:i] for i in range(len(word))}
    sorted(rotations)
    acc = Fraction(0)
    for i in range(1, 80):
        acc += Fraction(i % 7 + 1, i + 3)
    x = 0
    for i in range(10000):
        x = (x * 31 + i) % 1000003
    return len(seen), acc, x


class HostSpeed:
    """Reference chunks timed between the items of one batch."""

    def __init__(self):
        self.marks = []  # chunk midpoints, perf_counter seconds
        self.durations = []
        self._due = 0.0  # item time left before the next chunk
        _chunk_work()  # warm up

    def chunk(self):
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _chunk_work()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.marks.append((start + end) / 2)
        self.durations.append(end - start)

    def after_item(self, item_s: float):
        """Run a chunk once CHUNK_EVERY_S of item time has passed, and one
        per CHUNK_EVERY_S of a long item, up to NEAREST, so that a long
        item's speed comes from chunks just before and just after it."""
        self._due -= item_s
        if self._due <= 0:
            for _ in range(min(NEAREST, 1 + int(-self._due / CHUNK_EVERY_S))):
                self.chunk()
            self._due = CHUNK_EVERY_S

    def scaled(self, starts: list, times: list) -> list:
        """Each item's time at the reference host's speed."""
        out = []
        for start, t in zip(starts, times):
            j = bisect.bisect(self.marks, start + t / 2)
            lo = max(0, min(j - NEAREST // 2, len(self.marks) - NEAREST))
            near = self.durations[lo:lo + NEAREST]
            out.append(t * REFERENCE_S / statistics.median(near))
        return out

    def speed(self) -> float:
        """Host speed over the batch, relative to the reference host."""
        return REFERENCE_S / statistics.median(self.durations)
