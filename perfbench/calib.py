"""Machine-speed calibration for the benchmark's timings.

A 2-core virtual machine ran the same pure-Python loop anywhere from 18
to 32 ms from one tenth of a second to the next, and wall time equalled CPU
time throughout, so the processor itself sped up and slowed down; no choice
of run length averages that away.  The
benchmark therefore times this fixed loop, which never touches peocalc,
next to the work it measures, and reports every time scaled to a
machine on which the loop takes ``NOMINAL_NS``:

    reported = measured * NOMINAL_NS / loop time measured around it

A change to peocalc moves the measured time and leaves the loop alone, so
it moves the reported time by the same ratio.
"""

from __future__ import annotations

import time
from fractions import Fraction

# About the median time of one ``calibration_ns()`` sample on a 2-core
# virtual machine (medians of 1500 samples ranged 0.48-0.81 ms there).
NOMINAL_NS = 600_000


def _loop():
    # Arithmetic on small Fractions and floats, then allocation: small
    # dicts, lists and strings, sorting, Fractions of a few dozen bits.  Over
    # a minute of samples alternating with peocalc calls on the 2-core
    # machine, scaling by the arithmetic half alone left the medians of ten
    # `eval le 1` CLI calls spread by 10% (quartile distance over median)
    # and of a grade-7 Zassenhaus call by 4%; scaling by both halves left
    # 6% and 3%.
    table: dict = {}
    acc = Fraction(0)
    for i in range(50):
        table[i % 47] = table.get(i % 47, 0) + i * 3
        acc += Fraction(i % 7 + 1, i % 5 + 2)
    x = 0.0
    for i in range(250):
        x = x * 0.5 + i / 3.0
    rows = []
    for i in range(30):
        d = {"k%d" % j: [j, str(j * i)] for j in range(8)}
        rows.append(sorted(d.items(), key=lambda kv: kv[1][1]))
        acc += Fraction(3 ** (i % 23) + i, 2 ** (i % 17) + 1)
    text = ",".join(k for row in rows[:10] for k, _ in row)
    return acc, x, text


def calibration_ns() -> int:
    """Median of three timings of the loop, in ns."""
    clock = time.perf_counter_ns
    samples = []
    for _ in range(3):
        t0 = clock()
        _loop()
        samples.append(clock() - t0)
    samples.sort()
    return samples[1]
