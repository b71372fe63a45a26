"""Machine-speed reference: a fixed piece of work timed between rounds.

The 2-core host this benchmark was written on runs the same code up to 30 %
slower for minutes at a time (other jobs share it), and every time a round
measures, its set-up time included, moves with it.  ``run.py`` therefore
times this kernel in its own process, which imports nothing from qcvx,
before the first round and after every round, and rescales each round's
times by ``NOMINAL_S / measured`` (see README, "Machine-speed correction").
The kernel runs the mix qcvx itself runs: Qhull hulls, small numpy products
and a bytecode loop.  It depends on nothing but numpy and scipy, so a change
to the program cannot change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.spatial import ConvexHull

# The kernel's median time on the 2-core machine the benchmark was defined on
# (Python 3.11.7, numpy 2.4.6, scipy 1.17.1); a constant, so the corrected
# figures read in that machine's seconds.
NOMINAL_S = 0.050
REPEATS = 4

_PTS = np.random.default_rng(0).standard_normal((60, 3))


def kernel() -> float:
    acc = 0.0
    for k in range(300):
        acc += ConvexHull(_PTS[k % 20:k % 20 + 40]).volume
        acc += float(np.max(_PTS @ _PTS[k % 60]))
        acc += sum((j * j) % 7 for j in range(600))
    return acc


def probe(repeats: int = REPEATS) -> list:
    """Wall times of ``repeats`` runs of the kernel, in seconds."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def speed(samples: list) -> float:
    """Machine speed relative to the nominal one: above 1 is faster."""
    return NOMINAL_S / statistics.median(samples)
