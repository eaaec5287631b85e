"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark shares its machine with other tenants, and their load changes
how fast the same code runs by 30% or more within minutes. The workloads
made of separate run() calls therefore run this loop between their runs,
and report host times scaled to the loop's nominal speed: measured time x
NOMINAL_S / the loop's time measured next to it.

The loop mixes the kinds of work zonecast does: small uint8 numpy arrays
packed, unpacked and merged through a lookup table, float vectors of one
zone's block centres, and Python loops over points with math.dist, log10 and
dict updates. It does not use zonecast, so a change to zonecast does not
move it. Never change this file or NOMINAL_S: scaled times are comparable
only between runs that used the same loop.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# The loop's best-of-3 time on the machine where the benchmark was defined
# (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
NOMINAL_S = 0.003

_MERGE = np.array([[0, 1, 2, 3], [1, 1, 2, 3], [2, 1, 2, 1], [3, 1, 1, 3]], dtype=np.uint8)


def loop() -> float:
    cells = ((np.arange(400, dtype=np.uint8) * 7 + 3) & 3).reshape(20, 20)
    points = [(i * 0.37 % 100, i * 0.61 % 100) for i in range(60)]
    centres = np.column_stack(
        [np.arange(400) % 20 * 5.0 + 2.5, np.arange(400) // 20 * 5.0 + 2.5]
    )
    acc = 0.0
    counts: dict[tuple[int, int], int] = {}
    for i in range(30):
        quads = cells.reshape(-1, 4)
        packed = (
            (quads[:, 0] << 6) | (quads[:, 1] << 4) | (quads[:, 2] << 2) | quads[:, 3]
        ).astype(np.uint8).tobytes()
        b = np.frombuffer(packed, dtype=np.uint8)
        unpacked = np.empty((b.size, 4), dtype=np.uint8)
        unpacked[:, 0] = b >> 6
        unpacked[:, 1] = (b >> 4) & 3
        unpacked[:, 2] = (b >> 2) & 3
        unpacked[:, 3] = b & 3
        merged = _MERGE[cells, unpacked.reshape(20, 20)]
        acc += float(np.array_equal(merged, cells))
        px, py = points[i % 60]
        for qx, qy in points:
            d = math.dist((px, py), (qx, qy))
            if d > 0:
                acc -= 30.0 * math.log10(d)
            key = (i % 7, int(qx))
            counts[key] = counts.get(key, 0) + 1
        seg = centres - np.array([px, py])
        acc += float(np.hypot(seg[:, 0], seg[:, 1]).sum()) * 1e-6
    return acc + len(counts)


def seconds() -> float:
    """Best of three timings of the loop: the machine's current speed."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        loop()
        best = min(best, perf_counter() - t0)
    return best
