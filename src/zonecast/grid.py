"""Zone and block geometry of the pre-shared digital map.

The map is an unbounded plane tiled by square zones of n x n square blocks.
Cells are half-open, ``[k*side, (k+1)*side)`` of the offset ``p - origin``,
up to the one rounding of ``offset / block_side`` (-5e-324 divides to -0.0,
so it lies in zone 0): each finite position lies in one zone and one block.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

Position = tuple[float, float]


class ZoneIndex(NamedTuple):
    col: int
    row: int


class BlockIndex(NamedTuple):
    col: int
    row: int


class ConfigError(ValueError):
    """Scenario configuration is invalid or inconsistent."""


class OutOfZoneError(ValueError):
    """A position does not lie inside the stated zone."""


@dataclass(frozen=True)
class GridConfig:
    """Map geometry. A zone is n = round(zone_side / block_side) blocks wide:
    zone_side sets only n, and positions are quantised in blocks."""

    zone_side: float = 100.0
    block_side: float = 5.0
    origin: Position = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not (isinstance(self.origin, tuple) and _reals(self.origin, 2)):  # hashed in run caches
            raise ConfigError(f"origin must be a tuple of two real numbers, got {self.origin!r}")
        if self.zone_side <= 0 or self.block_side <= 0:
            raise ConfigError("zone_side and block_side must be positive")
        ratio = self.zone_side / self.block_side
        if not math.isfinite(ratio) or round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError(
                f"zone_side ({self.zone_side}) must be an integer multiple of "
                f"block_side ({self.block_side})"
            )
        # At most 2**20 cells: a 256 KiB payload, or ~0.1 m blocks in a 100 m zone.
        if round(ratio) > 1024:
            raise ConfigError(f"zone_side / block_side must be <= 1024, got {round(ratio)}")

    @cached_property
    def blocks_per_side(self) -> int:
        return round(self.zone_side / self.block_side)


def _reals(value: object, count: int) -> bool:
    """Whether ``value`` is a sequence of ``count`` real numbers."""
    try:
        return len(value) == count and all(isinstance(v, numbers.Real) for v in value)
    except TypeError:  # no length: a scalar
        return False


def _quantise(p: Position, g: GridConfig) -> tuple[tuple[int, int], tuple[int, int]]:
    """Per axis, ``divmod(k, n)`` of p's block number k counted from the origin:
    the zone, and the block within it, as exact ints.

    Raises ValueError when p is not two real numbers, or is not finite or
    lies a non-finite number of blocks from the origin.
    """
    try:  # a position that is not two real numbers fails to unpack or to subtract
        x, y = p
        kx = (x - g.origin[0]) / g.block_side
        ky = (y - g.origin[1]) / g.block_side
        finite = math.isfinite(kx) and math.isfinite(ky)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"a position must be two real numbers, got {p!r}") from exc
    except OverflowError:  # an int beyond float range
        finite = False
    if not finite:
        raise ValueError(f"position {p!r} lies a non-finite number of blocks from {g.origin!r}")
    n = g.blocks_per_side
    return divmod(math.floor(kx), n), divmod(math.floor(ky), n)


def _square(p: Position, side: float) -> tuple[int, int]:
    """p's square, ``(floor(x / side), floor(y / side))``, for finite quotients.

    If r < side = fl(r(1 + 2**-40)) < inf, points math.dist puts within r lie
    at most one square apart an axis. Take coordinates p <= q, u = 2**-53 and
    d = (q - p)/side exactly. math.dist rounds faithfully, so it is at least
    fl(q - p), exact if subnormal, else within u of q - p: d < 1 - u (for a
    subnormal r, as r + 2**-1074 <= side <= 2**-1022). If |p| or |q| >= 2**53
    side, both exceed (2**53 - 1)side, where floats lie over side(1 - u)
    apart: p = q. Else F(x) = floor(x / side) is a float and rounding is
    monotone, so floor(fl(x / side)) is F(x), or F(x) + 1 if x / side rounds
    up to it. As d < 1, two squares apart needs m = F(q) = F(p) + 1, p / side
    <= m - g/2 and q / side >= m + 1 - g'/2, g and g' the gaps below m and m
    + 1: d >= 1 - (g' - g)/2. Only m = 0 (g' = u) and m = 2**k (g' = 2g) have
    g' > g, and at 2**k p is at most the float below m*side, m*side(1 - u) =
    (m - g)side: d >= 1 - u/2, a contradiction.
    """
    return math.floor(p[0] / side), math.floor(p[1] / side)


def _square_side(reach: float, count: int, points: Iterable[Position]) -> float:
    """The side of ``_square``'s squares for neighbours within ``reach`` among
    ``count`` points in the box of ``points``' extremes: reach(1 + 2**-40), or
    inf, one square, where that is not finite or not past reach, where an
    extreme's quotient overflows, where the box spans at most two squares an
    axis (every 3 x 3 block covers it), and for 64 points or fewer, whose pairs
    cost less to measure than to sort into squares (measured: 48 to 72)."""
    side = reach * (1 + 2**-40)
    if count > 64 and reach < side < math.inf:
        box = list(zip(*[(min(axis), max(axis)) for axis in zip(*points)]))
        if box and all(math.isfinite(c / side) for c in box[0] + box[1]):
            (a, b), (c, d) = _square(box[0], side), _square(box[1], side)
            return side if c - a > 1 or d - b > 1 else math.inf
    return math.inf


def locate_zone(p: Position, g: GridConfig) -> ZoneIndex:
    """Zone containing position p; raises ValueError as ``_quantise`` does."""
    (zc, _), (zr, _) = _quantise(p, g)
    return ZoneIndex(zc, zr)


def locate_block(p: Position, z: ZoneIndex, g: GridConfig) -> BlockIndex:
    """Block of zone z containing p, its column counted eastward and its row northward
    from the zone's south-west corner. Raises OutOfZoneError when p lies outside z."""
    (zc, col), (zr, row) = _quantise(p, g)
    if (zc, zr) != z:
        raise OutOfZoneError(f"position {p!r} is not inside zone {tuple(z)}")
    return BlockIndex(col, row)


def block_centers(z: ZoneIndex, g: GridConfig) -> np.ndarray:
    """(n*n, 2) array of block-center coordinates in row-major order.

    Index ``row * n + col`` maps to the block at (col, row); row 0 is the
    southernmost row, matching the sensing-matrix cell layout.
    """
    n = g.blocks_per_side
    x0 = g.origin[0] + (z.col * n) * g.block_side
    y0 = g.origin[1] + (z.row * n) * g.block_side
    offsets = (np.arange(n) + 0.5) * g.block_side
    xx, yy = np.meshgrid(x0 + offsets, y0 + offsets)
    return np.column_stack([xx.ravel(), yy.ravel()])
