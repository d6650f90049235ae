"""The reference kernel: a yardstick for the speed of the core right now.

The benchmark's host is shared, and the speed of its cores changes by itself:
the same library call takes anywhere from 0.7 to 1.4 times its median CPU time
from one second to the next, and whole minutes run up to 40% fast or slow.
The benchmark therefore times this kernel, a fixed exact elimination over
Fractions (the same kind of pure-Python rational arithmetic the library does)
between library calls, and scales every library time by ``NOMINAL_S`` over
the kernel's time next to it.  A time so scaled is the time the call would
take on a core at the reference speed.  Library changes cannot move the
kernel, which uses only the standard library.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Median seconds of one ``sample()`` on the machine the baseline was taken on
# (2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11.7).  Any fixed value would do:
# it only sets the scale of the benchmark's times.
NOMINAL_S = 0.0021

_rng = random.Random(20251120)
_MATRIX = tuple(tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 7)) for _ in range(8)) for _ in range(7))


def _eliminate(rows) -> list:
    """Reduced row echelon form of ``rows`` over Fractions."""
    work = [list(row) for row in rows]
    r = 0
    for c in range(len(work[0])):
        p = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        work[r] = [v / work[r][c] for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return work


def sample() -> float:
    """CPU seconds of one run of the kernel."""
    t0 = time.process_time()
    _eliminate(_MATRIX)
    return time.process_time() - t0


def scale(samples: list) -> float:
    """Factor from CPU seconds to seconds at the reference speed."""
    return NOMINAL_S / (sum(samples) / len(samples))
