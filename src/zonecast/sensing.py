"""Sensing matrices: 2-bit block states, the wire codec, aggregation, and
synthetic perception of scenario ground truth.

A vehicle's knowledge of its zone is an m x n matrix with one 2-bit state per
block, ``b1 b0``: bit b1 says whether the block was sensed, b0 carries the
content. The four values are NO_OBJECT (10), OBJECT (11), OUT_OF_SENSING (00)
and UNCERTAIN (01, view blocked). With the default 20x20 zone the matrix
serializes to exactly 100 bytes.

A matrix is backed by its wire bytes or by its cell array, never both, and
a run stays in bytes: the constructor and ``perceive`` pack their cells
once, ``decode`` keeps the payload, ``aggregate`` merges two payloads
bitwise as Python ints, ``has_uncertain`` tests the bytes, and ``encode``
returns the kept bytes. A cells-backed matrix exists only where a caller
reads ``cells``. A delivered frame byte-equal to the receiver's kept wire
bytes runs neither ``decode`` nor ``aggregate``, nor does one whose
(receiver bytes, frame bytes) pair the run has already merged (see
``protocol``).

Perception is synthetic: ``perceive`` reads a ``GroundTruth`` of disc objects
and vehicles. What does not depend on the viewer is built once per world,
kept on the world and shared by every vehicle (``_world_view``): the zone's
block centres, occupied blocks and occluder discs. The first call for a
world, zone, grid and range perceives all the world's vehicles in one pass
and keeps their wire bytes on the world; any other viewer is a pass of one
(``_perceive_rows``). A world with no disc of radius > 0 skips the occlusion
test altogether; otherwise ``_hidden`` drops a block's (viewer, disc, centre)
triples whose sight line passes clear of the disc by a conservative strip
pre-test, and one exact hit test on the rest reproduces the float results of
the rule applied to one disc at a time (see its docstring).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from enum import IntEnum
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


class SensingMatrix:
    """One vehicle's 2-bit block states for a zone.

    ``cells[row, col]`` holds the state of block (col, row); row 0 is the
    zone's southernmost block row.

    A matrix is backed by exactly one of two things: its wire bytes (the
    constructor packs its cells once, so it keeps no reference to them) or
    its cell array. Reading ``cells`` on a wire-backed matrix unpacks a
    fresh, writeable array that becomes the backing, and the bytes are
    dropped, so a write into it is seen by the next ``encode``. ``cells``,
    ``zone`` and ``shape`` cannot be assigned; the last two read as slots.
    """

    __slots__ = ("zone", "shape", "_cells", "_wire")

    def __init__(self, zone: ZoneIndex, cells: np.ndarray) -> None:
        cells = np.asarray(cells)
        if cells.ndim != 2:
            raise ValueError("cells must be a 2-D array")
        # Checked before the cast, which would wrap 259 to 3 and cut 2.7 to 2.
        if cells.size and (cells.dtype.kind not in "biu" or cells.min() < 0 or cells.max() > 3):
            raise ValueError("cell values must be integers that fit in two bits")
        self.zone, self.shape, self._cells = zone, cells.shape, None
        self._wire = _pack(cells.astype(np.uint8, copy=False))

    def __setattr__(self, name: str, value: object) -> None:
        if name in ("zone", "shape") and hasattr(self, name):
            raise AttributeError(f"a SensingMatrix's {name} cannot be assigned")
        object.__setattr__(self, name, value)

    @property
    def cells(self) -> np.ndarray:
        if self._cells is None:
            m, n = self.shape
            flat = _UNPACK.take(np.frombuffer(self._wire, dtype=np.uint8), axis=0)
            self._cells, self._wire = flat.reshape(-1)[: m * n].reshape(m, n), None
        return self._cells

    @property
    def m(self) -> int:
        return self.shape[0]

    @property
    def n(self) -> int:
        return self.shape[1]

    @classmethod
    def _wired(cls, zone: ZoneIndex, shape: tuple[int, int], wire: bytes) -> "SensingMatrix":
        """Wrap the ceil(m*n/4) wire bytes of an m x n matrix whose padding
        bits are zero."""
        mat = object.__new__(_Fields)  # filled past __setattr__, then given its class
        mat.zone, mat.shape, mat._cells, mat._wire = zone, shape, None, wire
        mat.__class__ = cls
        return mat

    def copy(self) -> "SensingMatrix":
        # A copy is wire-backed: bytes are immutable, so it shares them.
        return SensingMatrix._wired(self.zone, self.shape, encode(self))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SensingMatrix):
            return NotImplemented
        return (
            self.zone == other.zone
            and self.shape == other.shape
            and encode(self) == encode(other)
        )

    def __repr__(self) -> str:
        return f"SensingMatrix(zone={self.zone!r}, cells={self.cells!r})"


# SensingMatrix's slots without its __setattr__.
_Fields = type("_Fields", (), {"__slots__": SensingMatrix.__slots__})

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

    A wire-backed matrix returns its bytes. A cells-backed one is packed
    afresh on every call, as its cells may have been written in place.
    """
    if mat._wire is not None:
        return mat._wire
    return _pack(mat._cells)


def _pack(cells: np.ndarray) -> bytes:
    """``encode``'s bytes of a ``uint8`` array of two-bit cells in row-major
    order. Each byte is the ``uint8`` dot product of its four cells with
    (64, 16, 4, 1); two-bit cells sum to at most 255, so it cannot wrap."""
    flat = cells.reshape(-1)
    if flat.size % 4:
        flat = np.concatenate([flat, np.zeros(-flat.size % 4, dtype=np.uint8)])
    return (flat.reshape(-1, 4) @ _QUAD_WEIGHTS).tobytes()


def _is_int(value: object) -> bool:
    """Whether ``value`` is an integer: a bool is not one, numpy integers are."""
    return type(value) is int or (
        not isinstance(value, bool) and isinstance(value, (int, np.integer))
    )


def decode(data: bytes, zone: ZoneIndex, m: int, n: int) -> SensingMatrix:
    """Inverse of encode. Raises ValueError unless m and n are non-negative
    integers, then PayloadSizeError on a wrong-length payload.

    Builds no array: the result is backed by the payload's bytes, with the
    padding bits past m*n cells cleared, so it encodes as its cells would.
    """
    if not (type(m) is type(n) is int and m >= 0 and n >= 0):  # a run's own shape passes here
        if not (_is_int(m) and _is_int(n) and m >= 0 and n >= 0):
            raise ValueError(f"m and n must be non-negative integers, got {m!r} and {n!r}")
        m, n = int(m), int(n)
    expected = (m * n + 3) // 4
    data = bytes(data)
    if len(data) != expected:
        raise PayloadSizeError(
            f"expected {expected} bytes for a {m}x{n} matrix, got {len(data)}"
        )
    pad_bits = -(m * n) % 4 * 2
    if data[-1:] and data[-1] & ((1 << pad_bits) - 1):
        data = data[:-1] + bytes((data[-1] >> pad_bits << pad_bits,))
    return SensingMatrix._wired(zone, (m, n), data)


def aggregate(
    current: SensingMatrix, received: SensingMatrix
) -> tuple[SensingMatrix, bool]:
    """Element-wise merge of a received matrix into the current one.

    Per cell: a received cell that was not sensed (00 or 01) leaves the
    current cell alone; a sensed one (10 or 11) fills a current cell that
    was not sensed; two sensed values that disagree become UNCERTAIN (01);
    two that agree stay. Returns the merged matrix and whether any cell's
    value actually differs from before.

    The merge runs on both payloads at once, each read as one big-endian
    int (SWAR, "SIMD within a register"), and returns a wire-backed matrix.
    ``lo`` holds the low bit b0 of every pair, so ``c1``/``r1`` mark the
    sensed cells of each side at b0. ``fill`` marks the cells that take the
    received value; ``conf`` the cells sensed on both sides whose values
    differ, which is their b0 as both b1 are set; they become UNCERTAIN,
    01, the ``conf`` bit itself. ``keep`` marks the rest. Both paddings are
    zero, so the merged padding is too and ``changed`` is a byte compare.
    """
    if current.zone != received.zone:
        raise IncompatibleMatrixError(
            f"zone mismatch: {tuple(current.zone)} vs {tuple(received.zone)}"
        )
    if current.shape != received.shape:
        raise IncompatibleMatrixError(
            f"shape mismatch: {current.shape} vs {received.shape}"
        )
    cur = encode(current)
    c, r = int.from_bytes(cur, "big"), int.from_bytes(encode(received), "big")
    lo = int.from_bytes(b"\x55" * len(cur), "big")
    c1, r1 = c >> 1 & lo, r >> 1 & lo
    fill = r1 & ~c1
    conf = r1 & c1 & (c ^ r)
    keep = lo & ~(fill | conf)
    out = (c & (keep | keep << 1) | r & (fill | fill << 1) | conf).to_bytes(len(cur), "big")
    return SensingMatrix._wired(current.zone, current.shape, out), out != cur


def has_uncertain(mat: SensingMatrix) -> bool:
    """True iff any cell is UNCERTAIN (01), tested on the wire bytes read as
    one int ``x``: a cell is 01 where b1 is clear and b0 set, which
    ``~(x >> 1) & x`` marks at b0. The padding reads 00. A wire-backed matrix
    stays wire-backed."""
    wire = encode(mat)
    x = int.from_bytes(wire, "big")
    return bool(~(x >> 1) & x & int.from_bytes(b"\x55" * len(wire), "big"))


@dataclass(frozen=True)
class GroundTruth:
    """Scenario world: static disc objects plus the vehicles themselves.

    objects: ((x, y) position, radius) pairs.
    vehicles: (id, (x, y) position, radius) triples. Vehicles are both
    detectable objects and occluders for everyone else's view. A radius of 0
    means a point vehicle that never occludes.
    """

    objects: tuple[tuple[Position, float], ...] = ()
    vehicles: tuple[tuple[int, Position, float], ...] = ()

    def __post_init__(self) -> None:
        if any(not r > 0 for _, r in self.objects):
            raise ValueError("object radii must be positive")
        if any(not r >= 0 for _, _, r in self.vehicles):
            raise ValueError("vehicle radii must be non-negative")
        # Not fields: perceive's _WorldView per (zone, grid) and bytes per (zone, grid, range).
        object.__setattr__(self, "_views", {})
        object.__setattr__(self, "_payloads", {})


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


@np.errstate(over="ignore")  # radii near the float limit square to inf
def _world_view(world: GroundTruth, zone: ZoneIndex, cfg: GridConfig) -> _WorldView:
    """Build the ``_WorldView`` all viewers share. A radius-0 vehicle never
    occludes, so a world of point vehicles without objects has no discs."""
    n = cfg.blocks_per_side
    centers = block_centers(zone, cfg)
    occupied = np.zeros(n * n, dtype=bool)
    for pos in [p for p, _ in world.objects] + [p for _, p, _ in world.vehicles]:
        with suppress(OutOfZoneError):  # a position outside the zone occupies none of it
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


def _hidden(v: np.ndarray, seg: tuple, live: np.ndarray, w: tuple, near: np.ndarray,
            view: _WorldView, slack: float) -> np.ndarray:
    """Flat indices into a block's (viewers, C) cells of the centers hidden from
    viewers ``v``: ``seg`` holds c - v per center as x, y and squared length
    (``live``: in range, not at v), ``w`` q - v per disc (``near``: in reach).

    A disc blocks the view of a center c when the viewer-to-c segment passes
    within the disc radius strictly between its endpoints: both the viewer
    and c itself must lie outside the disc, so an object never shadows the
    block it occupies. The viewer's own disc never occludes.

    Only discs within reach are tested. Every center in range lies within
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

    A strip pre-test first drops the (viewer, disc, center) triples whose
    line passes clear of the disc: it keeps a triple unless cross*cross >
    reff2 * seg_len2, for cross = sx*wy - sy*wx, reff = r(1 + 2**-40) +
    slack, slack = 2**-40 (S + R) + 2**-500 and S the block's largest
    |vx| + |vy|. Take a hit, values as computed, and r2 finite:
    - |q - p| <= r(1 + 4u) + 2**-535, as above with subnormal squares;
    - p lies within u|v| + 2.01u|seg| + 2**-1073 of v + t*seg, so q lies
      within D <= r(1 + 4u) + u|v| + 2.01u|seg| + 2**-534 of the line, and
      |q - v| <= r(1 + 4u) + (1 + 3u)|seg| + u|v| + 2**-534;
    - |seg|D = |sx(qy - vy) - sy(qx - vx)| exactly; rounding w and cross
      adds u|seg|D + 2.02u|seg||q - v| + 2**-1073 at most, so if seg_len2 >=
      2**-1020, |cross| <= |seg|a with a = r(1 + 8u) + 1.1u|v| + 4.1u|seg|
      + 2**-533, and seg_len2 >= |seg|**2 (1 - 4u);
    - reff2 >= reff**2 (1 - 11u) and a <= reff(1 - 8u), so cross*cross <=
      reff2 * seg_len2 as exact products, and rounding keeps the order.
    Shorter segments round their squares absolutely, so the pre-test reads
    their length as inf. If cross overflows, |seg||q - v| >= 2**1022 (or w
    overflowed and |q - v| > 2**1023) while reff >= 2**-41 |q - v|, so
    reff2 * seg_len2 overflows too; inf - inf is NaN, kept by testing
    ~(a > b); an infinite reff or r2 keeps every triple. The rest take one
    exact test, in the float order of the rule applied to one disc at a
    time: separate ufuncs on split x/y arrays never fuse a multiply-add, so
    ties (a segment tangent to a disc, a center on its boundary) get the
    same bits under any BLAS.
    """
    # Each viewer's centers in range, as flat (viewers, C) indices padded to L.
    L, C = live.sum(axis=1).max(), live.shape[1]
    at = np.argsort(~live, axis=1)[:, :L] + np.arange(len(v))[:, None] * C
    valid, px, py, plen2 = (a.take(at) for a in (live, *seg))
    pb, pk = np.nonzero(near)
    pwx, pwy = w[0][pb, pk], w[1][pb, pk]
    reff = view.r[pk] * (1 + 2**-40) + slack
    strip = np.where(plen2 < 2**-1020, np.inf, plen2)[pb] * (reff * reff)[:, None]
    cross = px[pb] * pwy[:, None] - py[pb] * pwx[:, None]
    i, j = np.divmod(np.flatnonzero(~(cross * cross > strip) & valid[pb]), L)
    b, k, cell = pb[i], pk[i], at[pb[i], j]
    (sx, sy, seg_len2), wx, wy = (a.take(cell) for a in seg), pwx[i], pwy[i]
    qx, qy, r2, c = view.q[k, 0], view.q[k, 1], view.r2[k], cell - b * C
    t = (sx * wx + sy * wy) / seg_len2
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    dx = qx - (v[b, 0] + t * sx)
    dy = qy - (v[b, 1] + t * sy)
    ox, oy = view.centers[c, 0] - qx, view.centers[c, 1] - qy  # on or in the disc: not hidden
    hit = (dx * dx + dy * dy <= r2) & (ox * ox + oy * oy > r2)
    return cell[hit]


# Entries per (viewers, C) or (viewers, M) array of a block of one viewer or more.
_ROW_CELLS = 2**12


@np.errstate(over="ignore", invalid="ignore")  # inf compares as intended; inf - inf is kept
def _perceive_rows(viewers: list, view: _WorldView, sensing_range: float) -> list[bytes]:
    """The wire bytes each (id, position) of ``viewers`` perceives. A block of
    viewers takes the center offsets, their ``hypot``, the range masks and the
    disc cut as (viewers, C) and (viewers, M) arrays, with one viewer's ufuncs
    on the same elements, then one ``_hidden`` call: its strip pre-test drops
    only triples its exact hit test cannot hit, so no cell changes."""
    step = max(1, _ROW_CELLS // max(len(view.centers), len(view.r2)))
    reach = (sensing_range + view.r) * (1 + 2**-40) + 2**-500
    base = np.where(view.occupied, np.uint8(BlockState.OBJECT), np.uint8(BlockState.NO_OBJECT))
    out = []
    for i in range(0, len(viewers), step):
        block = viewers[i : i + step]
        v = np.array([pos for _, pos in block], dtype=float)
        sx, sy = view.centers[:, 0] - v[:, :1], view.centers[:, 1] - v[:, 1:]
        dist = np.hypot(sx, sy)
        cells = np.tile(base, (len(block), 1))
        if len(view.r2):
            wx, wy = view.q[:, 0] - v[:, :1], view.q[:, 1] - v[:, 1:]
            ww = wx * wx + wy * wy
            ids = np.array([vid for vid, _ in block], dtype=object)[:, None]
            # No shadow from a disc holding the viewer, out of reach, or its own.
            near = (ww > view.r2) & (ww <= reach * reach) & (view.owner != ids)
            # Only centers in range can read UNCERTAIN; the rest read 00 anyway.
            seg_len2 = sx * sx + sy * sy
            live = (dist <= sensing_range) & (seg_len2 > 0)
            slack = (np.abs(v).sum(axis=1).max() + sensing_range) * 2**-40 + 2**-500
            hidden = _hidden(v, (sx, sy, seg_len2), live, (wx, wy), near, view, slack)
            cells.reshape(-1)[hidden] = BlockState.UNCERTAIN
        cells[dist > sensing_range] = BlockState.OUT_OF_SENSING
        out += [_pack(row) for row in cells]
    return out


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
    otherwise. The vehicle's own block follows the same rules, so it reads
    OBJECT unless its center is out of range or hidden by another disc.
    The matrix is backed by wire bytes, kept on the world for its vehicles.
    """
    if locate_zone(self_pos, cfg) != zone:
        raise OutOfZoneError(f"vehicle {self_id} at {self_pos!r} is outside zone {tuple(zone)}")
    view = world._views.get((zone, cfg))
    if view is None:
        view = world._views[(zone, cfg)] = _world_view(world, zone, cfg)
    key = (zone, cfg, sensing_range)
    if key not in world._payloads:
        viewers = [(vid, tuple(pos)) for vid, pos, _ in world.vehicles]
        world._payloads[key] = dict(zip(viewers, _perceive_rows(viewers, view, sensing_range)))
    wire = world._payloads[key].get((self_id, tuple(self_pos)))
    if wire is None:
        (wire,) = _perceive_rows([(self_id, self_pos)], view, sensing_range)
    n = cfg.blocks_per_side
    return SensingMatrix._wired(zone, (n, n), wire)


def format_matrix(mat: SensingMatrix) -> str:
    """Render a matrix as m rows of two-bit tokens, northernmost row first."""
    lines = []
    for row in mat.cells[::-1]:
        lines.append(" ".join(f"{v >> 1}{v & 1}" for v in row))
    return "\n".join(lines)
