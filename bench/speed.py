"""A fixed pure-Python kernel that measures how fast the machine runs now.

On a shared virtual machine the speed of the interpreter drifts by tens of
percent within a minute, in both directions, with CPU time equal to wall
time.  ``run.py`` times this kernel between passes and between set-up runs
and reports each time as it would read on a machine where one call of the
kernel takes ``REFERENCE_S``: a pass's wall time, and every send in it, is
multiplied by ``scale(before, after)`` of the probes on either side.

The kernel does the same kind of work as fpaut (small tuples, free
reduction, dictionary counts) but does not import it, so a change to fpaut
moves the reported times and leaves the scale alone.  Never change the
kernel or ``REFERENCE_S``: either would change the scale of every reported
time.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.010
REPEATS = 3

_IMAGES = {0: ((0, 1), (1, 1)), 1: ((0, 1),), 2: ((2, 1), (1, -1))}
_WORD = tuple((i % 3, 1 if i % 2 else -1) for i in range(40))


def _reduce(word) -> tuple:
    out = []
    for gen, exp in word:
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
            if exp == 0:
                continue
        out.append((gen, exp))
    return tuple(out)


def kernel() -> int:
    """About 10 ms of interpreter work on the machine of the baseline."""
    seen = {}
    total = 0
    for k in range(400):
        image = [(g, e if exp > 0 else -e)
                 for gen, exp in _WORD for g, e in _IMAGES[gen]]
        word = _reduce(image + [(k % 3, 1)])
        seen[word[:3]] = seen.get(word[:3], 0) + 1
        total += len(word)
    return total + len(seen)


def probe() -> float:
    """Seconds of the fastest of REPEATS calls of the kernel."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(before: float, after: float) -> float:
    """Factor that brings a time measured between two probes to the
    reference speed."""
    return REFERENCE_S / ((before + after) / 2)
