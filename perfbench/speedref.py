"""Machine-speed probe shared by run.py and setup_probe.py.

The machine the benchmark was tuned on (2-vCPU Intel Xeon, Python 3.11)
changes speed by up to 2x for tens of seconds at a time, and its two cores
need not run at the same speed, so raw seconds from two runs are not
comparable.  The time metrics are rescaled to the nominal speed, at which
one speed sample takes NOMINAL_SAMPLE_S seconds.
"""

import time
from bisect import bisect_right

SAMPLE_STEPS = 1_000
NOMINAL_SAMPLE_S = 2.8e-4

_now = time.perf_counter


def reference_loop(steps):
    """Fixed stdlib-only work resembling the program's hot loops: float
    arithmetic, bisect and set insertion."""
    cuts = [0.25, 0.5, 0.75]
    bins = set()
    x, acc = 0.1234, 0
    for _ in range(steps):
        x = 3.99 * x * (1.0 - x)
        acc += bisect_right(cuts, x)
        bins.add(int(x * 1000.0))
    return acc + len(bins)


def speed_sample():
    """(start, end) of one speed sample."""
    t0 = _now()
    reference_loop(SAMPLE_STEPS)
    return t0, _now()


def speed(repeats=5):
    """Median speed-sample time, in seconds (odd `repeats`).  Avoids the
    statistics module, whose import would add to the set-up probe."""
    times = sorted(b - a for a, b in (speed_sample() for _ in range(repeats)))
    return times[repeats // 2]
