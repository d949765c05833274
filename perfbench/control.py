"""Control kernel: fixed work in exmech's mix, timed next to every analysis.

The development machine is a shared 2-core VM whose per-core speed drifts by
up to 1.8x within minutes, in both directions, so raw times of one workload
spread 25-35% between runs.  The benchmark times this kernel immediately
before and after every analysis, on the same core, and reports each
analysis's time scaled by ``NOMINAL_S / (mean of the two control times)``:
the time the analysis would take when the kernel takes ``NOMINAL_S``.  Raw
times are printed beside the scaled ones.

The kernel copies the shape of exmech's hot loops without calling exmech
(a rank-vector scan over tuples, then ``Fraction`` upper-contour sums and
comparisons in about equal time), so a change to exmech does not change it.  A tight loop of dict updates was tried first
and tracked exmech's speed worse.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

# Kernel time on an unloaded core of the 2-core x86-64 development VM, CPython 3.11.
NOMINAL_S = 0.035

_rng = random.Random(1)
_VECTORS = [tuple(_rng.randrange(6) for _ in range(6)) for _ in range(1600)]
_PAIRS = {(a, z): a * 2 + z for a in range(3) for z in range(2)}
_LOTTERIES = [
    {f"z{k}": Fraction(_rng.randrange(1, 12), 12) for k in range(3)} for _ in range(40)
]


def kernel() -> tuple[int, Fraction]:
    hits = 0
    for a in range(6):
        for b in range(6):
            if a == b:
                continue
            targets = [_PAIRS[(x, (a + x) % 2)] for x in range(3)]
            for rv in _VECTORS:
                if rv[a] >= rv[b]:
                    continue
                best = rv[b]
                if all(best <= rv[t] for t in targets):
                    hits += 1
    total = Fraction(0)
    for limit in range(3):
        for lhs in _LOTTERIES:
            for rhs in _LOTTERIES[:20]:
                pl = sum((p for z, p in lhs.items() if int(z[1]) <= limit), Fraction(0))
                pr = sum((p for z, p in rhs.items() if int(z[1]) <= limit), Fraction(0))
                if pl > pr:
                    total += pl - pr
    return hits, total


def timed(samples: int = 1) -> float:
    """Median kernel time over `samples` runs, with the cyclic GC paused."""
    times = []
    gc.disable()
    try:
        for _ in range(samples):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    times.sort()
    return times[len(times) // 2]


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two control timings."""
    return NOMINAL_S / ((before + after) / 2)
