"""Zone/block geometry: index mapping, cell boundaries, and block centres."""

import math

import numpy as np
import pytest

from zonecast import (
    GridConfig,
    ZoneIndex,
    locate_block,
    locate_zone,
)
from zonecast.grid import BlockIndex, OutOfZoneError, block_centers


def test_default_grid_dimensions():
    g = GridConfig()
    assert g.zone_side == 100.0
    assert g.block_side == 5.0
    assert g.blocks_per_side == 20


def test_block_side_must_divide_zone_side():
    with pytest.raises(ValueError):
        GridConfig(zone_side=100.0, block_side=7.0)
    with pytest.raises(ValueError):
        GridConfig(zone_side=0.0, block_side=5.0)
    with pytest.raises(ValueError):
        GridConfig(zone_side=100.0, block_side=-5.0)
    # an exact integer ratio is accepted even when it is large
    assert GridConfig(zone_side=100.0, block_side=0.5).blocks_per_side == 200


def test_zone_holds_at_most_1024_blocks_per_side():
    assert GridConfig(zone_side=1024.0, block_side=1.0).blocks_per_side == 1024
    with pytest.raises(ValueError, match="must be <= 1024, got 1025"):
        GridConfig(zone_side=1025.0, block_side=1.0)


def test_locate_zone_quadrants_and_negative_coordinates():
    g = GridConfig()
    assert locate_zone((0.0, 0.0), g) == ZoneIndex(0, 0)
    assert locate_zone((99.9, 99.9), g) == ZoneIndex(0, 0)
    assert locate_zone((100.0, 0.0), g) == ZoneIndex(1, 0)  # half-open cells
    assert locate_zone((0.0, 100.0), g) == ZoneIndex(0, 1)
    assert locate_zone((-0.1, -0.1), g) == ZoneIndex(-1, -1)
    assert locate_zone((250.0, -150.0), g) == ZoneIndex(2, -2)


def test_locate_zone_respects_origin():
    g = GridConfig(origin=(50.0, -50.0))
    assert locate_zone((50.0, -50.0), g) == ZoneIndex(0, 0)
    assert locate_zone((49.9, -50.0), g) == ZoneIndex(-1, 0)
    assert locate_zone((150.0, 49.9), g) == ZoneIndex(1, 0)


def test_locate_block_half_open_boundaries():
    g = GridConfig()
    z = ZoneIndex(0, 0)
    assert locate_block((0.0, 0.0), z, g) == BlockIndex(0, 0)
    assert locate_block((4.999, 4.999), z, g) == BlockIndex(0, 0)
    assert locate_block((5.0, 0.0), z, g) == BlockIndex(1, 0)
    assert locate_block((0.0, 5.0), z, g) == BlockIndex(0, 1)
    assert locate_block((97.5, 2.5), z, g) == BlockIndex(19, 0)
    # the zone's far edge belongs to the next zone, so inside this zone the
    # largest reachable block index is n-1 even for points arbitrarily close
    assert locate_block((99.999999, 99.999999), z, g) == BlockIndex(19, 19)


def test_locate_block_rejects_point_outside_zone():
    g = GridConfig()
    with pytest.raises(OutOfZoneError):
        locate_block((100.0, 0.0), ZoneIndex(0, 0), g)
    with pytest.raises(OutOfZoneError):
        locate_block((-0.001, 50.0), ZoneIndex(0, 0), g)
    # the same point is fine against its actual zone
    assert locate_block((100.0, 0.0), ZoneIndex(1, 0), g) == BlockIndex(0, 0)


def test_locate_block_in_negative_zone():
    g = GridConfig()
    z = ZoneIndex(-1, -1)
    assert locate_block((-100.0, -100.0), z, g) == BlockIndex(0, 0)
    assert locate_block((-0.001, -0.001), z, g) == BlockIndex(19, 19)
    assert locate_block((-52.5, -97.5), z, g) == BlockIndex(9, 0)


def test_block_centers_row_major_from_south_west():
    g = GridConfig(zone_side=15.0, block_side=5.0)
    c = block_centers(ZoneIndex(0, 0), g)
    assert c.shape == (9, 2)
    # row-major: index r*n + c, row 0 is the southernmost row
    assert c[0].tolist() == [2.5, 2.5]
    assert c[1].tolist() == [7.5, 2.5]
    assert c[3].tolist() == [2.5, 7.5]
    assert c[8].tolist() == [12.5, 12.5]


def test_block_centers_agree_with_locate_block():
    # exact and inexact sides, near and far zones, with and without an origin
    cases = [(GridConfig(), ZoneIndex(3, -2)), (GridConfig(), ZoneIndex(10**6, -(10**6)))]
    for g in (
        GridConfig(0.3, 0.1),
        GridConfig(3.3, 0.3, origin=(0.7, -1.3)),
        GridConfig(10.0, 0.1, origin=(-254511.6, 0.05)),
    ):
        cases += [(g, ZoneIndex(-1, 2)), (g, ZoneIndex(10**6, -(10**6)))]
    rng = np.random.default_rng(7)
    for g, z in cases:
        centers = block_centers(z, g)
        n = g.blocks_per_side
        for idx in rng.integers(0, n * n, size=40):
            x, y = centers[int(idx)]
            b = locate_block((float(x), float(y)), z, g)
            assert b.row * n + b.col == int(idx)


def test_block_centers_spacing_is_block_side():
    g = GridConfig()
    c = block_centers(ZoneIndex(0, 0), g)
    n = g.blocks_per_side
    xs = c[:n, 0]
    assert np.allclose(np.diff(xs), g.block_side)
    ys = c[::n, 1]
    assert np.allclose(np.diff(ys), g.block_side)
    assert math.isclose(c[0, 0], g.block_side / 2)


@pytest.mark.parametrize("p", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0)])
def test_locate_zone_rejects_non_finite_positions(p):
    with pytest.raises(ValueError, match="non-finite number of blocks"):
        locate_zone(p, GridConfig())
