"""Property test of the map quantiser: every finite position lies in exactly
one block of its own zone, on exact and inexact grid sides alike.

Positions are drawn anywhere, and on, or one ulp either side of, the zone and
block edges. An edge is drawn both as ``origin + k * block_side`` and as
``origin + zone * zone_side``, which differ on sides inexact in binary.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zonecast import GridConfig, ZoneIndex, locate_block, locate_zone
from zonecast.grid import OutOfZoneError

SIDES = [(100.0, 5.0), (20.0, 1.0), (15.0, 5.0), (0.3, 0.1), (3.3, 0.3), (10.0, 0.1)]
ORIGINS = [(0.0, 0.0), (0.7, -1.3), (-254511.6, 1.0e6)]


@st.composite
def _coordinate(draw, g: GridConfig, axis: int) -> float:
    if draw(st.booleans()):
        return draw(st.floats(-1e300, 1e300))
    n = g.blocks_per_side
    zone = draw(st.integers(-(10**6), 10**6))
    if draw(st.booleans()):
        edge = g.origin[axis] + (zone * n + draw(st.integers(0, n))) * g.block_side
    else:
        edge = g.origin[axis] + zone * g.zone_side
    step = draw(st.sampled_from([-math.inf, None, math.inf]))
    return edge if step is None else math.nextafter(edge, step)


@st.composite
def _cases(draw):
    zone_side, block_side = draw(st.sampled_from(SIDES))
    g = GridConfig(zone_side, block_side, origin=draw(st.sampled_from(ORIGINS)))
    return g, (draw(_coordinate(g, 0)), draw(_coordinate(g, 1)))


@settings(max_examples=200, deadline=None)
@given(_cases())
# one ulp west of the default origin, which divides to -0.0 blocks
@example((GridConfig(), (-5e-324, 2.5)))
# far out on inexact sides, where zone * zone_side is not zone * n * block_side
@example((GridConfig(0.3, 0.1), (-254511.6, 0.05)))
def test_a_position_lies_in_one_block_of_its_own_zone(case):
    g, p = case
    n = g.blocks_per_side
    z = locate_zone(p, g)
    b = locate_block(p, z, g)
    for zi, bi, axis in ((z.col, b.col, 0), (z.row, b.row, 1)):
        assert 0 <= bi < n
        # the block's half-open cell holds the offset, up to the one rounding
        # of offset / block_side: half an ulp of the quotient, in blocks
        k = zi * n + bi
        offset = p[axis] - g.origin[axis]
        side = Fraction(g.block_side)
        slack = Fraction(math.ulp(offset / g.block_side)) / 2 * side
        assert k * side - slack <= Fraction(offset) < (k + 1) * side + slack
    with pytest.raises(OutOfZoneError):
        locate_block(p, ZoneIndex(z.col + 1, z.row), g)
