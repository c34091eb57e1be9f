"""A fixed slice of work that does not use lsgt, timed to gauge the machine's speed.

The machine the benchmark runs on is shared: identical work took up to 40 %
longer in one stretch of minutes than in another.  The run times a
``yardstick()`` slice before every fit and scales the round's seconds by
``REFERENCE_S`` / the mean slice seconds.  The slice mixes what lsgt's sweep
spends its time on: a scalar Python recursion with ``math`` calls, and numpy
calls on arrays of a few dozen values.  It runs no program code, so a change
to lsgt moves the scaled seconds by the same factor as the raw ones; the
program reaches it only through the cache state a fit leaves behind.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.08   # about one slice's seconds on the reference machine (see README.md)

_Y = 100.0 + np.cumsum(np.random.default_rng(12345).normal(0.0, 1.0, 64))
_Y_LIST = [float(v) for v in _Y]


def _recursion(repeats: int) -> float:
    acc = 0.0
    for k in range(repeats):
        alpha, level, trend = 0.1 + 1e-4 * k, _Y_LIST[0], 0.0
        for y in _Y_LIST:
            e = (y - level - 0.5 * trend) / (0.05 * level)
            acc += math.log1p(e * e / 5.0)
            new = alpha * y + (1.0 - alpha) * level
            trend = 0.1 * (new - level) + 0.9 * trend
            level = new
    return acc


def _small_arrays(repeats: int) -> float:
    acc = 0.0
    for k in range(repeats):
        x = _Y * (1.0 + 1e-6 * k)
        c = np.cumsum(x)
        acc += float(np.dot(np.log(c), x) + np.exp(-x / 100.0).sum())
        acc += float(np.sort(x)[32] + np.searchsorted(c, c[40]))
    return acc


def yardstick() -> float:
    """Seconds taken by one fixed slice (about ``REFERENCE_S`` on the reference machine)."""
    t0 = time.perf_counter()
    _recursion(2500)
    _small_arrays(1600)
    return time.perf_counter() - t0
