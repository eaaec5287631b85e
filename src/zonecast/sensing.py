"""Sensing matrices: 2-bit block states, the wire codec, aggregation, and
synthetic perception of scenario ground truth.

A vehicle's knowledge of its zone is an m x n matrix with one 2-bit state per
block, ``b1 b0``: bit b1 says whether the block was sensed, b0 carries the
content. The four values are NO_OBJECT (10), OBJECT (11), OUT_OF_SENSING (00)
and UNCERTAIN (01, view blocked). With the default 20x20 zone the matrix
serializes to exactly 100 bytes.

The codec and the merge run once per delivered frame, so each is one array
operation: ``decode`` gathers four cells per payload byte from a 256 x 4
unpack table, ``encode`` packs each group of four cells as one ``uint8`` dot
product with (64, 16, 4, 1), and ``aggregate`` reads a flat 16-entry merge
table at ``(current << 2) | received``. Their results, like ``perceive``'s
and ``copy``'s, hold two-bit values by construction, so they are wrapped by
``SensingMatrix._of`` without the range check that the public constructor
applies to cells from outside.

Perception is synthetic: ``perceive`` reads a ``GroundTruth`` of disc objects
and vehicles. What does not depend on the viewer is built once per world and
shared by every vehicle (``_world_view``): the zone's block centres, the mask
of occupied blocks and the occluder disc arrays. A world with no disc of
radius > 0 skips the occlusion test altogether; otherwise ``_hidden`` tests
every disc within reach of the viewer at once against the block centres in
sensing range, reproducing the float results of the rule applied to one
disc at a time (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import (
    GridConfig,
    OutOfZoneError,
    Position,
    ZoneIndex,
    block_centers,
    locate_block,
    locate_zone,
)


class BlockState(IntEnum):
    """Per-block state; the enum value is the wire bit pair (b1 << 1) | b0."""

    OUT_OF_SENSING = 0b00
    UNCERTAIN = 0b01
    NO_OBJECT = 0b10
    OBJECT = 0b11

    @property
    def sensed(self) -> bool:
        """The b1 bit: whether the block was actually observed."""
        return bool(self.value >> 1)


class PayloadSizeError(ValueError):
    """Encoded payload length does not match the matrix dimensions."""


class IncompatibleMatrixError(ValueError):
    """Two matrices cannot be aggregated (zone or shape mismatch)."""


@dataclass(eq=False)
class SensingMatrix:
    """One vehicle's 2-bit block states for a zone.

    ``cells[row, col]`` holds the state of block (col, row); row 0 is the
    zone's southernmost block row.
    """

    zone: ZoneIndex
    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=np.uint8)
        if cells.ndim != 2:
            raise ValueError("cells must be a 2-D array")
        if cells.size and cells.max() > 3:
            raise ValueError("cell values must fit in two bits")
        self.cells = cells

    @property
    def m(self) -> int:
        return self.cells.shape[0]

    @property
    def n(self) -> int:
        return self.cells.shape[1]

    @classmethod
    def _of(cls, zone: ZoneIndex, cells: np.ndarray) -> "SensingMatrix":
        """Wrap a 2-D ``uint8`` array whose values are known to fit in two
        bits, without the public constructor's conversion and range check."""
        mat = object.__new__(cls)
        mat.zone = zone
        mat.cells = cells
        return mat

    def copy(self) -> "SensingMatrix":
        return SensingMatrix._of(self.zone, self.cells.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SensingMatrix):
            return NotImplemented
        return (
            self.zone == other.zone
            and self.cells.shape == other.cells.shape
            and bool(np.array_equal(self.cells, other.cells))
        )


_QUAD_WEIGHTS = np.array([64, 16, 4, 1], dtype=np.uint8)

# _UNPACK[byte] is the byte's four cells, highest-order bit pair first.
_UNPACK = np.array([[b >> k & 3 for k in (6, 4, 2, 0)] for b in range(256)], dtype=np.uint8)
_UNPACK.flags.writeable = False


def encode(mat: SensingMatrix) -> bytes:
    """Pack a matrix into ceil(m*n/4) bytes.

    Cells go out in row-major order starting at the south-west corner; within
    each byte earlier cells occupy the higher-order bit pairs, and within a
    pair b1 is the more significant bit. With the default 20x20 zone this is
    exactly 100 bytes; when the cell count is not a multiple of four the last
    byte is padded with zero bits so equal matrices still encode to equal
    bytes.

    Each byte is the ``uint8`` dot product of its four cells with
    (64, 16, 4, 1); two-bit cells sum to at most 255, so it cannot wrap.
    """
    flat = mat.cells.reshape(-1)
    if flat.size % 4:
        flat = np.concatenate([flat, np.zeros(-flat.size % 4, dtype=np.uint8)])
    return (flat.reshape(-1, 4) @ _QUAD_WEIGHTS).tobytes()


def decode(data: bytes, zone: ZoneIndex, m: int, n: int) -> SensingMatrix:
    """Inverse of encode; raises PayloadSizeError on a wrong-length payload.

    One gather through the 256 x 4 unpack table turns the payload into a
    fresh cell array; padding cells past m*n are dropped whatever their
    bits.
    """
    expected = (m * n + 3) // 4
    data = bytes(data)
    if len(data) != expected:
        raise PayloadSizeError(
            f"expected {expected} bytes for a {m}x{n} matrix, got {len(data)}"
        )
    cells = _UNPACK.take(np.frombuffer(data, dtype=np.uint8), axis=0)
    return SensingMatrix._of(zone, cells.reshape(-1)[: m * n].reshape(m, n))


def _merge_table() -> np.ndarray:
    """Flat 16-entry lookup: table[(current << 2) | received] -> merged cell."""
    table = np.empty(16, dtype=np.uint8)
    for cur in range(4):
        for rec in range(4):
            if rec >> 1 == 0:
                out = cur  # received cell carries no information
            elif cur >> 1 == 0:
                out = rec  # fill an unsensed cell with the sensed report
            elif cur != rec:
                out = BlockState.UNCERTAIN  # sensed but contradictory
            else:
                out = cur
            table[cur << 2 | rec] = out
    return table


_MERGE = _merge_table()
_MERGE.flags.writeable = False


def aggregate(
    current: SensingMatrix, received: SensingMatrix
) -> tuple[SensingMatrix, bool]:
    """Element-wise merge of a received matrix into the current one.

    Per cell: a sensed received value fills an unsensed current cell;
    two sensed values that disagree reset the cell to UNCERTAIN; everything
    else is left alone. Returns the merged matrix and whether any cell's
    value actually differs from before.

    The merge is one read of the 16-entry table at ``(current << 2) |
    received``, and ``changed`` compares the two cell buffers byte for byte.
    """
    if current.zone != received.zone:
        raise IncompatibleMatrixError(
            f"zone mismatch: {tuple(current.zone)} vs {tuple(received.zone)}"
        )
    if current.cells.shape != received.cells.shape:
        raise IncompatibleMatrixError(
            f"shape mismatch: {current.cells.shape} vs {received.cells.shape}"
        )
    merged = _MERGE.take((current.cells << 2) | received.cells)
    changed = merged.tobytes() != current.cells.tobytes()
    return SensingMatrix._of(current.zone, merged), changed


def has_uncertain(mat: SensingMatrix) -> bool:
    """True iff any cell is UNCERTAIN (01). Compares with the plain int: an
    IntEnum operand sends numpy down its slow scalar path."""
    return bool((mat.cells == BlockState.UNCERTAIN.value).any())


@dataclass(frozen=True)
class GroundTruth:
    """Scenario world: static disc objects plus the vehicles themselves.

    objects: ((x, y) position, radius) pairs.
    vehicles: (id, (x, y) position, radius) triples. Vehicles are both
    detectable objects and occluders for everyone else's view. A radius of 0
    means a point vehicle that never occludes.

    The hash is computed once, at construction: every ``perceive`` looks the
    world up in ``_world_view``'s cache, and rehashing all N vehicles there
    would cost O(N^2) per world.
    """

    objects: tuple[tuple[Position, float], ...] = ()
    vehicles: tuple[tuple[int, Position, float], ...] = ()

    def __post_init__(self) -> None:
        if any(not r > 0 for _, r in self.objects):
            raise ValueError("object radii must be positive")
        if any(not r >= 0 for _, _, r in self.vehicles):
            raise ValueError("vehicle radii must be non-negative")
        object.__setattr__(self, "_hash", hash((self.objects, self.vehicles)))

    def __hash__(self) -> int:
        return self._hash


class _WorldView(NamedTuple):
    """What every viewer of one world and zone shares, as read-only arrays:
    the zone's C block centres, which of them hold an object or vehicle,
    and the M occluder discs of radius > 0, objects first."""

    centers: np.ndarray  # (C, 2) block centres, row-major from the south-west
    occupied: np.ndarray  # (C,) block holds an object or vehicle centre
    q: np.ndarray  # (M, 2) disc centres
    r: np.ndarray  # (M,) radii
    r2: np.ndarray  # (M,) squared radii
    owner: np.ndarray  # (M,) vehicle id, None for an object


@lru_cache(maxsize=1)
@np.errstate(over="ignore")  # radii near the float limit square to inf
def _world_view(world: GroundTruth, zone: ZoneIndex, cfg: GridConfig) -> _WorldView:
    """Build a world's ``_WorldView``. None of it depends on the viewer, and
    the engine perceives one world at a time, so one cache entry lets every
    vehicle share one. A radius-0 vehicle never occludes and is left out, so
    a world of point vehicles without objects has no discs at all."""
    n = cfg.blocks_per_side
    centers = block_centers(zone, cfg)
    occupied = np.zeros(n * n, dtype=bool)
    for pos in [p for p, _ in world.objects] + [p for _, p, _ in world.vehicles]:
        if locate_zone(pos, cfg) == zone:
            col, row = locate_block(pos, zone, cfg)
            occupied[row * n + col] = True
    discs = [(pos, r, None) for pos, r in world.objects]
    discs += [(pos, r, vid) for vid, pos, r in world.vehicles if r > 0]
    q = np.array([pos for pos, _, _ in discs], dtype=float).reshape(-1, 2)
    r = np.array([r for _, r, _ in discs], dtype=float)
    r2 = r * r
    owner = np.array([vid for _, _, vid in discs], dtype=object)
    view = _WorldView(centers, occupied, q, r, r2, owner)
    for a in view:
        a.flags.writeable = False
    return view


@np.errstate(over="ignore")  # an overflowed square compares as inf, as intended
def _hidden(
    self_id: int,
    viewer: np.ndarray,
    cols: np.ndarray,
    view: _WorldView,
    sensing_range: float,
) -> np.ndarray:
    """The entries of ``cols`` whose block center is hidden behind a disc.

    A disc blocks the view of a center c when the viewer-to-c segment passes
    within the disc radius strictly between its endpoints: both the viewer
    and c itself must lie outside the disc, so an object never shadows the
    block it occupies. The viewer's own disc never occludes.

    Only discs within reach are tested. Every center in ``cols`` lies within
    ``sensing_range`` R of the viewer v, so the closest point of its segment
    does too, and a disc of radius r centred farther than R + r from v can
    never pass ``dx*dx + dy*dy <= r2``. The cut reuses the squared distance
    ``w·w`` of the viewer-inside-the-disc test and leaves slack for the float
    error of both tests, which is relative at any distance from the origin.
    With u = 2**-53:

    - ``hypot`` is within an ulp, so each segment is at most R(1 + 3u) long;
    - the tested point p = v + t*seg, t in [0, 1], lies between v and the
      center c coordinate by coordinate when c - v is exact, which Sterbenz's
      lemma gives whenever the two coordinates are within a factor 2, as
      anywhere in a zone far from the origin; otherwise |v| <= 2|c - v| there,
      and the rounding of v + t*seg adds at most 4u|seg|. So |p - v| <=
      (1 + 4u)|seg|;
    - a hit rounds q - p once and its sum of squares twice against r2 <=
      r*r(1 + u), so |q - p| <= r(1 + 3u);
    - ``w·w`` is at most (1 + u)**4 |q - v|**2.

    A hitting disc thus has sqrt(w·w) <= (R + r)(1 + 11u). The cut keeps
    w·w <= reach*reach for reach = (R + r)(1 + 2**-40) + 2**-500: 2**-40 is
    8192u, which also absorbs the roundings of reach and of its square, and
    2**-500 exceeds the absolute error of subnormal results, a few 2**-1075
    in a square. An overflowed ``w·w`` lies beyond every finite reach, and
    an infinite reach keeps every disc. Zero slack is not enough: where c - v
    is inexact, v + seg can round past c toward a disc just over r beyond c,
    which is then hit while ``w·w`` reads above (R + r)**2
    (``tests/test_perceive_properties.py`` keeps such worlds).

    The discs left are tested at once, as (discs x cols) arrays.
    Ties (a segment tangent to a disc, a center on its boundary) are decided
    by exact float comparisons, so every value is computed in the float
    order of the rule applied to one disc at a time, with separate
    elementwise ufuncs on split x/y arrays: they never fuse a multiply-add,
    so the bits do not depend on the platform's BLAS.
    """
    keep = view.owner != self_id
    wx, wy = (view.q[keep] - viewer).T
    ww = wx * wx + wy * wy
    reach = (sensing_range + view.r[keep]) * (1 + 2**-40) + 2**-500
    # A disc holding the viewer casts no shadow; one out of reach casts none
    # on a center in range.
    near = (ww > view.r2[keep]) & (ww <= reach * reach)
    keep[keep] = near
    qx, qy, r2 = view.q[keep, :1], view.q[keep, 1:], view.r2[keep, None]
    cx, cy = view.centers[cols].T
    sx, sy = cx - viewer[0], cy - viewer[1]
    seg_len2 = sx * sx + sy * sy
    safe_len2 = np.where(seg_len2 == 0, 1.0, seg_len2)
    t = (sx * wx[near, None] + sy * wy[near, None]) / safe_len2
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    dx = qx - (viewer[0] + t * sx)
    dy = qy - (viewer[1] + t * sy)
    ox, oy = cx - qx, cy - qy  # a center on or in the disc is not hidden by it
    hit = (dx * dx + dy * dy <= r2) & (ox * ox + oy * oy > r2)
    return cols[hit.any(axis=0) & (seg_len2 > 0)]


def perceive(
    self_id: int,
    self_pos: Position,
    world: GroundTruth,
    zone: ZoneIndex,
    cfg: GridConfig,
    sensing_range: float,
) -> SensingMatrix:
    """Synthesize the matrix a vehicle at self_pos perceives for its zone.

    Per block center: beyond sensing_range -> OUT_OF_SENSING; hidden behind an
    occluder (any object, or any vehicle other than self) -> UNCERTAIN; else
    OBJECT when some object or vehicle center lies in the block, NO_OBJECT
    otherwise. The vehicle's own block reports OBJECT.
    """
    if locate_zone(self_pos, cfg) != zone:
        raise OutOfZoneError(f"vehicle {self_id} at {self_pos!r} is outside zone {tuple(zone)}")
    n = cfg.blocks_per_side
    view = _world_view(world, zone, cfg)
    centers = view.centers
    viewer = np.asarray(self_pos, dtype=float)
    dist = np.hypot(centers[:, 0] - viewer[0], centers[:, 1] - viewer[1])

    cells = np.full(n * n, int(BlockState.NO_OBJECT), dtype=np.uint8)
    cells[view.occupied] = BlockState.OBJECT
    if len(view.r2):
        # Only centers in range can read UNCERTAIN; the rest read 00 anyway.
        cols = np.flatnonzero(dist <= sensing_range)
        cells[_hidden(self_id, viewer, cols, view, sensing_range)] = BlockState.UNCERTAIN
    cells[dist > sensing_range] = BlockState.OUT_OF_SENSING
    return SensingMatrix._of(zone, cells.reshape(n, n))


def format_matrix(mat: SensingMatrix) -> str:
    """Render a matrix as m rows of two-bit tokens, northernmost row first."""
    lines = []
    for row in mat.cells[::-1]:
        lines.append(" ".join(f"{v >> 1}{v & 1}" for v in row))
    return "\n".join(lines)
