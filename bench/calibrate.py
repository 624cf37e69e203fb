"""A fixed stdlib-only reference loop that tracks the box's current speed.

On the 2-CPU box this benchmark was built on, the same solve takes up to
twice as long for seconds or minutes at a time, with CPU time equal to wall
time, so neither CPU time nor longer runs remove the swing. This loop does
the library's kind of work (Fraction arithmetic, tuple-keyed dicts, JSON)
but runs none of its code, and its time swings with the solves': timed
just before each solve, kn-family's batch time over loop time varied by 2%
(quartile spread over seven seeds) where its raw time varied by 6%. The
match is worse, and sometimes no better than raw time, for the large family
solves, whose working set is far bigger.

Timings are reported in reference seconds: measured seconds times
REFERENCE_S over the loop's local time, i.e. seconds on a box that runs
the loop in REFERENCE_S. The loop runs only before the measured call, with
the garbage collector off, so a library change that leaves a larger heap
or more garbage behind cannot slow the loop and hide its own cost: with
3 million extra live objects, or 200,000 cyclic objects awaiting
collection, the loop's median time moved by less than 6%, no more than
between two measurements with neither.
"""

import gc
import json
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0028  # about the loop's time on the idle 2-CPU box


def _loop():
    counts = {}
    total = Fraction(0)
    for i in range(1, 600):
        f = Fraction(i % 17 - 8, i % 13 + 1)
        total += f
        counts[(i % 50, f)] = counts.get((i % 50, f), 0) + 1
    return json.dumps(sorted((str(k[1]), v) for k, v in counts.items())), total


def reference_time():
    """Median seconds for one run of the reference loop, now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            start = perf_counter()
            _loop()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scaled(measure):
    """Run measure() after the reference loop; return (seconds, reference seconds, result)."""
    reference = reference_time()
    start = perf_counter()
    result = measure()
    raw = perf_counter() - start
    return raw, raw * REFERENCE_S / reference, result
