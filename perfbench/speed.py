"""A fixed unit of work that measures how fast the machine runs right now.

On a shared machine the same command can take 30% longer from one minute
to the next, because of load the benchmark cannot see.  The benchmark
therefore runs this unit on the same CPU, interleaved with the work it
times, and scales each wall time to a nominal machine speed:

    scaled = wall * NOMINAL_UNIT_S / median(unit times)

The unit mixes the kinds of work the package does: interpreter loops,
float formatting and vectorised numpy arithmetic on cache-sized arrays.
It streams no large array: with an 8 MB pass added, the power sweep's
run-to-run spread over five seeds grew from 0.036 to 0.082.
"""
from __future__ import annotations

import time

import numpy as np

# about the unit's time on a 2-CPU Xeon guest (Python 3.11, numpy 2.4)
NOMINAL_UNIT_S = 0.0015

_X = np.linspace(0.0, 50.0, 20_000)
_CELLS = [float(v) for v in _X[:800]]


def unit_s() -> float:
    """Run the unit once; its wall time in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(6000):
        total += i * i % 7
    ",".join(["%.17g" % v for v in _CELLS])
    np.sort(np.sin(_X))
    return time.perf_counter() - start


def scaled(wall_s: float, unit_times: list[float]) -> float:
    """``wall_s`` at nominal machine speed."""
    return wall_s * NOMINAL_UNIT_S / float(np.median(unit_times))
