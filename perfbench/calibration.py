"""Machine-speed calibration for times measured on a shared host.

On a shared machine the speed available to one process drifts by tens of
percent over seconds and minutes, as other tenants come and go.  A fixed
pure-Python loop timed right before each measured run slows down with
the program, so ``time / median calibration time`` stays steady where
raw host seconds do not.  The loop uses only the standard library, so
no change to ``undercut`` can change it.

Benchmark times are reported in reference seconds:
``host seconds * REFERENCE_S / median(calibration seconds)``, the time
the work would take on a host where the loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

# Time of one calibration loop on an unloaded 2-core x86-64 VM with
# CPython 3.11; fixes the scale of reference seconds.
REFERENCE_S = 0.04


def _key(item):
    return (-item[0], item[1])


def calibrate() -> float:
    """Seconds for a fixed loop of sorted inserts, filtering, hashing and
    sorting over 4,000 small tuples: the operations the simulator spends
    its time on, on little enough memory not to move its peak."""
    rng = random.Random(7)
    items = [(rng.random(), rng.randrange(1000), f"id{i:06d}") for i in range(4_000)]
    start = time.perf_counter()
    for _ in range(4):
        pool: list = []
        for item in items:
            bisect.insort(pool, item, key=_key)
        gone = {item[2] for item in items[::3]}
        [item for item in pool if item[2] not in gone]
        {item[2]: item for item in items}
        sorted(items, key=lambda item: (item[1], -item[0]))
    return time.perf_counter() - start


def scale(calibration_s: list[float]) -> float:
    """Factor from host seconds to reference seconds (1.0 with no samples)."""
    if not calibration_s:
        return 1.0
    return REFERENCE_S / statistics.median(calibration_s)
