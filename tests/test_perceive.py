"""Local perception: occupancy, disc occlusion, and sensing range.

Geometry is hand-checked on a 3x3-block zone (15 m zone, 5 m blocks). All
segment/disc distances quoted in comments are straightforward to verify with
pen and paper.
"""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from zonecast import (
    BlockState,
    GridConfig,
    GroundTruth,
    ZoneIndex,
    format_matrix,
    locate_block,
    locate_zone,
    perceive,
)
from zonecast.grid import OutOfZoneError
from zonecast.sensing import has_uncertain

G = GridConfig(zone_side=15.0, block_side=5.0)
Z = ZoneIndex(0, 0)

OUT = int(BlockState.OUT_OF_SENSING)
UNC = int(BlockState.UNCERTAIN)
FREE = int(BlockState.NO_OBJECT)
OBJ = int(BlockState.OBJECT)


def test_empty_world_is_all_no_object_within_range():
    world = GroundTruth(vehicles=((1, (2.5, 7.5), 0.0),))
    mat = perceive(1, (2.5, 7.5), world, Z, G, sensing_range=20.0)
    # radius-0 vehicles occupy their block but cast no shadows
    assert int(mat.cells[1, 0]) == OBJ
    others = np.delete(mat.cells.reshape(-1), 1 * 3 + 0)
    assert (others == FREE).all()


def test_object_occupancy_occlusion_and_other_vehicle():
    # viewer in the west-middle block; a 1 m disc in the central block casts a
    # shadow over the east-middle block's centre; a second vehicle parks in
    # the south-east block (its segment clears the disc by 2.24 m).
    world = GroundTruth(
        objects=(((7.5, 7.5), 1.0),),
        vehicles=((1, (2.5, 7.5), 1.0), (2, (12.5, 2.5), 1.0)),
    )
    mat = perceive(1, (2.5, 7.5), world, Z, G, sensing_range=20.0)
    assert mat.cells.tolist() == [
        [FREE, FREE, OBJ],   # south row: vehicle 2's block
        [OBJ, OBJ, UNC],     # own block, object block, shadowed block
        [FREE, FREE, FREE],  # north row clear
    ]
    assert has_uncertain(mat)


def test_out_of_sensing_overrides_everything():
    world = GroundTruth(
        objects=(((7.5, 7.5), 1.0),),
        vehicles=((1, (2.5, 7.5), 1.0), (2, (12.5, 2.5), 1.0)),
    )
    mat = perceive(1, (2.5, 7.5), world, Z, G, sensing_range=6.0)
    # centres within 6 m of (2.5, 7.5): own block (0), the object block (5),
    # and the blocks straight north/south (5). All others, including vehicle
    # 2's occupied block (11.18 m) and the shadowed block (10 m), read 00.
    assert mat.cells.tolist() == [
        [FREE, OUT, OUT],
        [OBJ, OBJ, OUT],
        [FREE, OUT, OUT],
    ]


def test_viewer_inside_disc_sees_past_it():
    # the disc covers the viewer, so it cannot shadow anything for them
    world = GroundTruth(
        objects=(((3.0, 7.5), 1.0),),
        vehicles=((1, (2.5, 7.5), 0.0),),
    )
    mat = perceive(1, (2.5, 7.5), world, Z, G, sensing_range=20.0)
    assert int(mat.cells[1, 0]) == OBJ  # own + object block
    assert int(mat.cells[1, 1]) == FREE
    assert int(mat.cells[1, 2]) == FREE
    assert not has_uncertain(mat)


def test_object_does_not_shadow_its_own_block():
    # a disc whose centre sits in a block cannot make that block uncertain,
    # so the viewer reads it as occupied no matter how close the disc edge
    # passes to the sight line
    world = GroundTruth(
        objects=(((7.5, 7.5), 2.4),),
        vehicles=((1, (2.5, 7.5), 0.0),),
    )
    mat = perceive(1, (2.5, 7.5), world, Z, G, sensing_range=20.0)
    assert int(mat.cells[1, 1]) == OBJ
    assert int(mat.cells[1, 2]) == UNC


def test_other_vehicles_occlude_like_objects():
    world = GroundTruth(
        vehicles=((1, (2.5, 7.5), 1.0), (2, (7.5, 7.5), 1.0)),
    )
    mat = perceive(1, (2.5, 7.5), world, Z, G, sensing_range=20.0)
    assert int(mat.cells[1, 1]) == OBJ  # vehicle 2's block
    assert int(mat.cells[1, 2]) == UNC  # behind vehicle 2


def test_viewer_must_be_inside_the_zone():
    world = GroundTruth(vehicles=((1, (-1.0, 7.5), 0.0),))
    with pytest.raises(OutOfZoneError):
        perceive(1, (-1.0, 7.5), world, Z, G, sensing_range=20.0)


def test_ground_truth_validates_radii():
    with pytest.raises(ValueError):
        GroundTruth(objects=(((1.0, 1.0), 0.0),))
    with pytest.raises(ValueError):
        GroundTruth(vehicles=((1, (1.0, 1.0), -0.5),))
    GroundTruth(vehicles=((1, (1.0, 1.0), 0.0),))  # point vehicles are fine


def test_format_matrix_prints_north_row_first():
    world = GroundTruth(
        objects=(((7.5, 7.5), 1.0),),
        vehicles=((1, (2.5, 7.5), 1.0), (2, (12.5, 2.5), 1.0)),
    )
    mat = perceive(1, (2.5, 7.5), world, Z, G, sensing_range=20.0)
    lines = format_matrix(mat).splitlines()
    assert lines == [
        "10 10 10",
        "11 11 01",
        "10 10 11",
    ]


def test_equal_worlds_hash_and_compare_equal():
    vehicles = ((1, (2.5, 2.5), 0.0), (2, (7.5, 2.5), 1.0))
    a = GroundTruth(objects=(((12.5, 12.5), 1.0),), vehicles=vehicles)
    b = GroundTruth(objects=(((12.5, 12.5), 1.0),), vehicles=tuple(list(vehicles)))
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.objects, a.vehicles))  # same value as before caching
    moved = dataclasses.replace(a, vehicles=vehicles[:1])
    assert moved != a and hash(moved) == hash((moved.objects, moved.vehicles))
    assert len({a, b, moved}) == 2


def test_perceived_world_is_freed_with_its_last_reference():
    # The arrays every viewer shares live on the world, not in a module cache.
    world = GroundTruth(vehicles=((1, (2.5, 2.5), 1.0), (2, (7.5, 7.5), 1.0)))
    perceive(1, (2.5, 2.5), world, Z, G, sensing_range=20.0)
    ref = weakref.ref(world)
    del world
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize(
    "vehicles, sensing_range, own",
    [
        (((1, (0.5, 0.5), 0.3),), 20.0, OBJ),
        # vehicle 2's disc lies on the segment to the own block's centre
        (((1, (0.5, 0.5), 0.3), (2, (1.2, 1.2), 0.3)), 20.0, UNC),
        # the own block's centre (2.5, 2.5) is 2.83 m away
        (((1, (0.5, 0.5), 0.3),), 1.0, OUT),
    ],
)
def test_own_block_follows_the_same_rules_as_any_block(vehicles, sensing_range, own):
    world = GroundTruth(vehicles=vehicles)
    mat = perceive(1, (0.5, 0.5), world, Z, G, sensing_range=sensing_range)
    assert int(mat.cells[0, 0]) == own


@pytest.mark.parametrize(
    "fields",
    [{"objects": (((5.0, 5.0), math.nan),)}, {"vehicles": ((1, (5.0, 5.0), math.nan),)}],
    ids=["object", "vehicle"],
)
def test_ground_truth_rejects_nan_radii(fields):
    with pytest.raises(ValueError, match="radii"):
        GroundTruth(**fields)


@pytest.mark.parametrize(
    "g, pos",
    [(GridConfig(), (-5e-324, 2.5)), (GridConfig(0.3, 0.1), (-254511.6, 0.05))],
    ids=["one-ulp-west-of-the-origin", "inexact-sides"],
)
def test_lone_vehicle_on_a_rounding_edge_marks_only_its_own_block(g, pos):
    # Each position lies on a zone edge up to rounding: its zone and its block
    # come from one floor, so the vehicle occupies block (0, 0) of its zone.
    zone = locate_zone(pos, g)
    assert locate_block(pos, zone, g) == (0, 0)
    world = GroundTruth(vehicles=((1, pos, 0.0),))
    cells = perceive(1, pos, world, zone, g, sensing_range=4 * g.zone_side).cells
    assert int(cells[0, 0]) == OBJ
    assert (np.delete(cells.reshape(-1), 0) == FREE).all()
