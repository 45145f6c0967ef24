"""The speed probe: a fixed piece of pure-Python work that the benchmark
times between ops, to measure how fast the machine runs Python right then.

Shared machines change speed under a benchmark.  The one this benchmark was
built on (a 2-vCPU VM) switches between states up to 2.2 times apart that
last from under a second to minutes, and CPU time follows wall time, so no
clock of the process sees through it.  The probe does.  It calls nothing in
algseeds, so a change to the library leaves it alone, and it runs the same
kinds of work the library does: big-integer arithmetic, Fractions, small
tuples, lists and dicts.

A time t measured between two probes of p1 and p2 seconds is reported as
``normalized(t, p) = t * REFERENCE_S / p`` with p = (p1 + p2) / 2: the time
t would take on a machine whose probe takes REFERENCE_S, the probe's time on
the build machine in its fast state.  Over 150 s on that machine, with the
probe run before and after each of four ops (three sweeps and a uniformity
report) and the ops' caches cleared each time, the medians of 10 s windows
spread 1.40-1.62x (max/min) raw and 1.16-1.22x normalized.  A probe with a
large working set (random reads over a 200,000-element list) tracked the
ops worse, 1.25-1.34x, so the probe keeps to small data.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 4.0e-4   # the probe's time on the build machine in its fast state
ROUNDS = 3             # a probe is the fastest of three, to shed interrupts


def _work() -> int:
    acc = 0
    table: dict[int, tuple] = {}
    x = 3 ** 200
    for i in range(100):
        x = (x * 1103515245 + 12345) % (1 << 521)
        f = Fraction(i + 1, 7 * i + 3) + Fraction(x % 1000, 997)
        table[i % 64] = (f.numerator, f.denominator, [x & 0xFFFF, i])
        acc += len(table[i % 64][2])
    return acc


def probe() -> float:
    """Seconds the probe's work takes now: the fastest of ROUNDS runs, with
    the garbage collector held off so that a collection owed by the caller
    is not charged to the probe."""
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(ROUNDS):
            t0 = clock()
            _work()
            best = min(best, clock() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def warm_up() -> None:
    """Run the probe until the interpreter has specialised its code, so the
    first measured probe of a fresh interpreter is not a cold one."""
    for _ in range(5):
        probe()


def normalized(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_S / probe_s
