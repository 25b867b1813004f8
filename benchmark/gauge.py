"""Host-speed gauge for the end-to-end timings.

The reference machine is shared: its speed drifts by up to 2x for
minutes at a time, for every process alike (a plain Python loop shows it
too), so raw times of identical runs spread by 20-50%.  ``gauge()``
times a fixed piece of work that has nothing to do with the package:
an interpreter loop and a few NumPy array passes, about half of the time
each, as the workloads mix interpreted loops and array code.  Run just
before and just after an operation, it says how fast the host was while
the operation ran; ``to_reference`` turns the operation's seconds into
seconds at the reference speed, the speed at which ``gauge()`` takes
``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.025

# preallocated, so that the gauge adds a fixed 8 MB to peak_rss_mb
_ARRAY = np.random.default_rng(0).random(500_000)
_OUT = np.empty_like(_ARRAY)
_ORDER = np.empty(50_000, dtype=np.intp)


def gauge() -> float:
    t0 = time.perf_counter()
    d, s = {}, 0
    for i in range(100_000):
        s += i & 7
        d[i & 255] = s
    for _ in range(4):
        np.multiply(_ARRAY, 1.5, out=_OUT)
        np.maximum(_OUT, _ARRAY[::-1], out=_OUT)
        _OUT.sum()
        _ORDER[:] = np.argsort(_ARRAY[:50_000])
    return time.perf_counter() - t0


def to_reference(before: float, after: float) -> float:
    """Factor from seconds measured between two gauge readings to seconds
    at the reference speed."""
    return 2 * REFERENCE_S / (before + after)
