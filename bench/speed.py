"""Host speed probe: a fixed piece of pure-Python work, timed.

The benchmark runs on shared machines whose speed drifts by up to 2x
within a minute. A probe timed in the same process, interleaved with
the queries, measures that drift; run.py scales every end-to-end time
by REFERENCE_S / (median probe time), which leaves the package's own
cost and cancels the host's. The probe does the kind of work the
package does (partition enumeration, tuple and dict handling, integer
and Fraction arithmetic) with its own code, and runs with the garbage
collector off so that its time does not depend on the heap the
package has built up.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Probe time that counts as speed 1. A round figure: the probe takes
# 2.5-5 ms on a shared 2-core x86-64 VM with CPython 3.11.7.
REFERENCE_S = 0.005


def _partitions(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _work() -> Fraction:
    table: dict[tuple[int, ...], Fraction] = {}
    total = Fraction(0)
    for nu in _partitions(18, 18):
        weight = 1
        for i, part in enumerate(nu):
            weight = weight * (part + i + 1) % 1009
        table[nu] = Fraction(weight, len(nu) + 1)
        total += table[nu]
    return total


def probe() -> float:
    """Seconds one run of the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
