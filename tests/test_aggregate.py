"""Element-wise aggregation: the merge rule, its algebra, and the changed flag.

The expected cell table is re-derived here from the merge rule's plain-language
form — trust a sensed report over an unsensed cell, flag contradictory sensed
reports as uncertain — rather than copied from the implementation.
"""

import itertools

import numpy as np
import pytest

from zonecast import (
    BlockState,
    SensingMatrix,
    ZoneIndex,
    aggregate,
)
from zonecast.sensing import IncompatibleMatrixError, has_uncertain

Z = ZoneIndex(0, 0)

OUT, UNC, FREE, OBJ = 0, 1, 2, 3


def merged_cell(cur: int, rec: int) -> int:
    """Independent statement of the per-cell rule."""
    cur_sensed = cur in (FREE, OBJ)
    rec_sensed = rec in (FREE, OBJ)
    if rec_sensed and not cur_sensed:
        return rec
    if rec_sensed and cur_sensed and cur != rec:
        return UNC
    return cur


def mat(cells) -> SensingMatrix:
    return SensingMatrix(Z, np.array(cells, dtype=np.uint8))


def single(cur: int, rec: int) -> int:
    out, _ = aggregate(mat([[cur]]), mat([[rec]]))
    return int(out.cells[0, 0])


def test_cell_table_exhaustive():
    for cur in range(4):
        for rec in range(4):
            assert single(cur, rec) == merged_cell(cur, rec), (cur, rec)


def test_uncertain_resolved_by_sensed_report():
    assert single(UNC, FREE) == FREE
    assert single(UNC, OBJ) == OBJ


def test_conflicting_sensed_reports_become_uncertain_symmetrically():
    assert single(FREE, OBJ) == UNC
    assert single(OBJ, FREE) == UNC


def test_out_of_sensing_in_received_is_neutral():
    for cur in range(4):
        assert single(cur, OUT) == cur


def test_idempotence():
    for v in range(4):
        assert single(v, v) == v
    rng = np.random.default_rng(0)
    every_2x2 = [mat(np.array(c).reshape(2, 2)) for c in itertools.product(range(4), repeat=4)]
    larger = [mat(rng.integers(0, 4, size=shape)) for shape in ((3, 3), (1, 7), (20, 20))]
    for m in every_2x2 + larger:
        assert aggregate(m, m) == (m, False)


def test_sensedness_never_lost_except_by_conflict():
    for cur in range(4):
        for rec in range(4):
            if (cur, rec) in ((FREE, OBJ), (OBJ, FREE)):
                continue  # the conflict rule deliberately drops to UNCERTAIN
            if BlockState(cur).sensed:
                assert BlockState(merged_cell(cur, rec)).sensed


def test_commutes_except_out_versus_uncertain():
    # merge(00, 01) keeps 00 while merge(01, 00) keeps 01: receiving an
    # UNCERTAIN report never instils uncertainty, but holding one keeps it.
    for cur in range(4):
        for rec in range(4):
            if {cur, rec} == {OUT, UNC}:
                assert single(cur, rec) == cur
            else:
                assert single(cur, rec) == single(rec, cur)


def test_changed_flag_tracks_value_difference():
    a = mat([[OUT, FREE], [UNC, OBJ]])
    same, changed = aggregate(a, mat([[OUT, OUT], [OUT, OUT]]))
    assert not changed
    assert same == a
    upd, changed = aggregate(a, mat([[FREE, FREE], [FREE, FREE]]))
    assert changed
    # The OBJ-vs-FREE disagreement downgrades to UNC rather than either value
    # winning outright.
    assert upd.cells.tolist() == [[FREE, FREE], [FREE, UNC]]


def test_aggregate_leaves_inputs_untouched():
    a = mat([[OUT]])
    b = mat([[OBJ]])
    out, changed = aggregate(a, b)
    assert changed
    assert int(a.cells[0, 0]) == OUT
    assert int(out.cells[0, 0]) == OBJ


def test_zone_and_shape_mismatches_are_rejected():
    a = mat([[OUT]])
    with pytest.raises(IncompatibleMatrixError):
        aggregate(a, SensingMatrix(ZoneIndex(1, 0), np.zeros((1, 1), np.uint8)))
    with pytest.raises(IncompatibleMatrixError):
        aggregate(a, mat([[OUT, OUT]]))


def test_random_matrices_match_cell_rule():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = rng.integers(0, 4, size=(4, 5), dtype=np.uint8)
        b = rng.integers(0, 4, size=(4, 5), dtype=np.uint8)
        out, changed = aggregate(SensingMatrix(Z, a), SensingMatrix(Z, b))
        want = np.array(
            [[merged_cell(int(c), int(r)) for c, r in zip(ra, rb)] for ra, rb in zip(a, b)],
            dtype=np.uint8,
        )
        assert np.array_equal(out.cells, want)
        assert changed == (not np.array_equal(a, want))


def test_repeated_merge_reaches_fixed_point():
    # A single merge is not idempotent when conflicts exist: OBJ-vs-FREE first
    # downgrades to UNC, and the same incoming frame then resolves that UNC on
    # the next pass.  Two applications always suffice, after which further
    # merges of the same frame are no-ops.
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = SensingMatrix(Z, rng.integers(0, 4, size=(6, 6), dtype=np.uint8))
        b = SensingMatrix(Z, rng.integers(0, 4, size=(6, 6), dtype=np.uint8))
        first, _ = aggregate(a, b)
        second, _ = aggregate(first, b)
        third, changed = aggregate(second, b)
        assert not changed
        assert third == second


def test_conflict_free_merge_is_idempotent():
    # When the two views never disagree on sensed blocks, one merge reaches
    # the fixed point immediately.
    rng = np.random.default_rng(13)
    for _ in range(50):
        truth = rng.integers(2, 4, size=(6, 6), dtype=np.uint8)
        mask_a = rng.integers(0, 2, size=(6, 6), dtype=bool)
        mask_b = rng.integers(0, 2, size=(6, 6), dtype=bool)
        a = SensingMatrix(Z, np.where(mask_a, truth, OUT).astype(np.uint8))
        b = SensingMatrix(Z, np.where(mask_b, truth, OUT).astype(np.uint8))
        first, _ = aggregate(a, b)
        second, changed = aggregate(first, b)
        assert not changed
        assert second == first


def test_has_uncertain():
    assert has_uncertain(mat([[OUT, UNC]]))
    assert not has_uncertain(mat([[OUT, FREE], [OBJ, OUT]]))
