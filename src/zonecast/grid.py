"""Zone and block geometry of the pre-shared digital map.

The map is an unbounded plane tiled by square zones, each subdivided into
square blocks. All cells are half-open, ``[k*side, (k+1)*side)``, so every
finite position belongs to exactly one zone and one block within it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

Position = tuple[float, float]


class ZoneIndex(NamedTuple):
    col: int
    row: int


class BlockIndex(NamedTuple):
    col: int
    row: int


class OutOfZoneError(ValueError):
    """A position does not lie inside the stated zone."""


@dataclass(frozen=True)
class GridConfig:
    """Map geometry. A zone holds exactly (zone_side/block_side)**2 blocks."""

    zone_side: float = 100.0
    block_side: float = 5.0
    origin: Position = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.zone_side <= 0 or self.block_side <= 0:
            raise ValueError("zone_side and block_side must be positive")
        ratio = self.zone_side / self.block_side
        if not math.isfinite(ratio) or round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"zone_side ({self.zone_side}) must be an integer multiple of "
                f"block_side ({self.block_side})"
            )
        # At most 2**20 cells: a 256 KiB payload, or ~0.1 m blocks in a 100 m zone.
        if round(ratio) > 1024:
            raise ValueError(f"zone_side / block_side must be <= 1024, got {round(ratio)}")

    @property
    def blocks_per_side(self) -> int:
        return round(self.zone_side / self.block_side)


def locate_zone(p: Position, g: GridConfig) -> ZoneIndex:
    """Zone containing position p.

    Raises ValueError when p is not finite or its offset from the grid
    origin, in zones, overflows a double.
    """
    col = (p[0] - g.origin[0]) / g.zone_side
    row = (p[1] - g.origin[1]) / g.zone_side
    if not (math.isfinite(col) and math.isfinite(row)):
        raise ValueError(f"position {p!r} lies a non-finite number of zones from {g.origin!r}")
    return ZoneIndex(math.floor(col), math.floor(row))


def locate_block(p: Position, z: ZoneIndex, g: GridConfig) -> BlockIndex:
    """Block of zone z containing p.

    Raises OutOfZoneError when p lies outside z. Column counts eastward and
    row northward from the zone's south-west corner.
    """
    if locate_zone(p, g) != z:
        raise OutOfZoneError(f"position {p!r} is not inside zone {tuple(z)}")
    x0, y0 = zone_origin(z, g)
    n = g.blocks_per_side
    col = min(int((p[0] - x0) // g.block_side), n - 1)
    row = min(int((p[1] - y0) // g.block_side), n - 1)
    return BlockIndex(col, row)


def zone_origin(z: ZoneIndex, g: GridConfig) -> Position:
    """World coordinates of the zone's south-west corner."""
    return (g.origin[0] + z.col * g.zone_side, g.origin[1] + z.row * g.zone_side)


def block_centers(z: ZoneIndex, g: GridConfig) -> np.ndarray:
    """(n*n, 2) array of block-center coordinates in row-major order.

    Index ``row * n + col`` maps to the block at (col, row); row 0 is the
    southernmost row, matching the sensing-matrix cell layout.
    """
    n = g.blocks_per_side
    x0, y0 = zone_origin(z, g)
    offsets = (np.arange(n) + 0.5) * g.block_side
    xx, yy = np.meshgrid(x0 + offsets, y0 + offsets)
    return np.column_stack([xx.ravel(), yy.ravel()])
