"""Property tests: the codec and the bitwise merge against the bit-shift
codec and the 2-D merge table, kept below as references.

Shapes run from 1x1 to 23x23, so most cell counts are not a multiple of
four and the last payload byte carries padding bits. Payloads arrive as
``bytes``, ``bytearray`` or ``memoryview``, with any padding bits set.
Every result must be a fresh, writable ``uint8`` array that shares memory
with neither its inputs nor a lookup table.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zonecast import (
    BlockState,
    GridConfig,
    GroundTruth,
    SensingMatrix,
    ZoneIndex,
    aggregate,
    decode,
    encode,
    format_matrix,
    locate_zone,
    perceive,
    sensing,
)
from zonecast.sensing import PayloadSizeError, has_uncertain

Z = ZoneIndex(0, 0)
TABLES = (sensing._UNPACK, sensing._QUAD_WEIGHTS)


def reference_encode(mat: SensingMatrix) -> bytes:
    flat = mat.cells.reshape(-1)
    if flat.size % 4:
        flat = np.concatenate([flat, np.zeros(-flat.size % 4, dtype=np.uint8)])
    quads = flat.reshape(-1, 4)
    packed = (quads[:, 0] << 6) | (quads[:, 1] << 4) | (quads[:, 2] << 2) | quads[:, 3]
    return packed.astype(np.uint8).tobytes()


def reference_decode(data: bytes, zone: ZoneIndex, m: int, n: int) -> SensingMatrix:
    expected = (m * n + 3) // 4
    data = bytes(data)
    if len(data) != expected:
        raise PayloadSizeError(
            f"expected {expected} bytes for a {m}x{n} matrix, got {len(data)}"
        )
    b = np.frombuffer(data, dtype=np.uint8)
    cells = np.empty((b.size, 4), dtype=np.uint8)
    cells[:, 0] = b >> 6
    cells[:, 1] = (b >> 4) & 3
    cells[:, 2] = (b >> 2) & 3
    cells[:, 3] = b & 3
    return SensingMatrix(zone, cells.reshape(-1)[: m * n].reshape(m, n))


def reference_merge_table() -> np.ndarray:
    table = np.empty((4, 4), dtype=np.uint8)
    for cur in range(4):
        for rec in range(4):
            if rec >> 1 == 0:
                out = cur
            elif cur >> 1 == 0:
                out = rec
            elif cur != rec:
                out = BlockState.UNCERTAIN
            else:
                out = cur
            table[cur, rec] = out
    return table


REFERENCE_MERGE = reference_merge_table()


def reference_aggregate(current: SensingMatrix, received: SensingMatrix):
    merged = REFERENCE_MERGE[current.cells, received.cells]
    changed = not np.array_equal(merged, current.cells)
    return SensingMatrix(current.zone, merged), changed


def assert_fresh(cells: np.ndarray, shape, *inputs) -> None:
    assert cells.dtype == np.uint8
    assert cells.shape == shape
    assert cells.flags.writeable
    for other in (*inputs, *TABLES):
        assert not np.shares_memory(cells, other)


dims = st.integers(1, 23)


@st.composite
def matrices(draw, m=None, n=None):
    m = draw(dims) if m is None else m
    n = draw(dims) if n is None else n
    return SensingMatrix(Z, draw(arrays(np.uint8, (m, n), elements=st.integers(0, 3))))


@st.composite
def payloads(draw):
    """A right-length payload of any bytes (so padding bits may be set), in
    one of the buffer types a payload can arrive as."""
    m, n = draw(dims), draw(dims)
    raw = draw(st.binary(min_size=(m * n + 3) // 4, max_size=(m * n + 3) // 4))
    kind = draw(st.sampled_from((bytes, bytearray, memoryview)))
    return m, n, kind(raw)


@given(matrices())
def test_encode_matches_reference(mat):
    assert encode(mat) == reference_encode(mat)


@given(payloads())
def test_decode_matches_reference_whatever_the_padding_bits(case):
    m, n, payload = case
    got = decode(payload, Z, m, n)
    want = reference_decode(payload, Z, m, n)
    assert got == want
    assert_fresh(got.cells, (m, n), np.frombuffer(payload, dtype=np.uint8))
    # Re-encoding clears the padding bits, as the reference does.
    assert encode(got) == reference_encode(want)


@given(matrices(), st.sampled_from((bytes, bytearray, memoryview)))
def test_round_trip_through_every_buffer_type(mat, kind):
    got = decode(kind(encode(mat)), Z, *mat.shape)
    assert got == mat
    assert_fresh(got.cells, mat.shape, mat.cells)


@given(
    dims,
    dims,
    st.integers(-3, 3).filter(bool),
    st.sampled_from((bytes, bytearray, memoryview)),
)
def test_wrong_lengths_raise_payload_size_error(m, n, delta, kind):
    size = max((m * n + 3) // 4 + delta, 0)  # m, n >= 1, so 0 bytes is wrong too
    payload = kind(bytes(b % 256 for b in range(size)))
    with pytest.raises(PayloadSizeError):
        reference_decode(payload, Z, m, n)
    with pytest.raises(PayloadSizeError):
        decode(payload, Z, m, n)


@given(payloads())
def test_mutating_a_decoded_matrix_leaves_the_next_decode_unchanged(case):
    m, n, payload = case
    first = decode(payload, Z, m, n)
    cells = first.cells
    cells ^= 3
    assert decode(payload, Z, m, n) == reference_decode(payload, Z, m, n)


@st.composite
def matrix_pairs(draw):
    """A current matrix and a received one: independent, or the current
    one with some cells unsensed (a merge that may change nothing)."""
    current = draw(matrices())
    if draw(st.booleans()):
        received = draw(matrices(*current.shape))
    else:
        keep = draw(arrays(bool, current.cells.shape))
        received = SensingMatrix(Z, np.where(keep, current.cells, 0).astype(np.uint8))
    return current, received


@given(matrix_pairs())
@settings(max_examples=200)
def test_aggregate_matches_reference(pair):
    current, received = pair
    before = (current.cells.copy(), received.cells.copy())
    merged, changed = aggregate(current, received)
    want, want_changed = reference_aggregate(current, received)
    assert merged == want
    assert changed is want_changed
    assert_fresh(merged.cells, current.cells.shape, current.cells, received.cells)
    assert np.array_equal(current.cells, before[0])
    assert np.array_equal(received.cells, before[1])


@given(matrix_pairs())
def test_mutating_a_merged_matrix_leaves_the_next_merge_unchanged(pair):
    current, received = pair
    merged, _ = aggregate(current, received)
    merged.cells[...] = 3
    again, changed = aggregate(current, received)
    want, want_changed = reference_aggregate(current, received)
    assert again == want and changed is want_changed


def test_merge_table_covers_every_cell_pair():
    for cur in range(4):
        for rec in range(4):
            got, _ = aggregate(
                SensingMatrix(Z, [[cur]]), SensingMatrix(Z, [[rec]])
            )
            assert got.cells[0, 0] == REFERENCE_MERGE[cur, rec]


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        SensingMatrix(Z, [[4]])
    with pytest.raises(ValueError):
        SensingMatrix(Z, [1, 2])
    for bad in (np.array([[259]]), [[2.7]], np.array([[3.5]]), [[-1]], [[256]]):
        with pytest.raises(ValueError):
            SensingMatrix(Z, bad)


def test_copy_is_fresh_and_equal():
    mat = SensingMatrix(Z, [[1, 2], [3, 0]])
    dup = mat.copy()
    assert dup == mat and not np.shares_memory(dup.cells, mat.cells)


def set_padding(raw: bytes, cells: int) -> bytes:
    """``raw`` with every padding bit past ``cells`` set."""
    pad_bits = -cells % 4 * 2
    return raw[:-1] + bytes((raw[-1] | (1 << pad_bits) - 1,))


@st.composite
def payload_pairs(draw):
    """An m x n shape whose cell count is not a multiple of four and two
    right-length payloads for it, both with their padding bits set: a
    current one and a received one that is independent of it or holds some
    of its cells and 00 elsewhere (a merge that may change nothing)."""
    m, n = draw(st.tuples(dims, dims).filter(lambda mn: mn[0] * mn[1] % 4))
    size = (m * n + 3) // 4
    cur = draw(st.binary(min_size=size, max_size=size))
    if draw(st.booleans()):
        rec = draw(st.binary(min_size=size, max_size=size))
    else:  # each bit of a nibble keeps or clears one cell of a byte
        nibbles = draw(st.lists(st.integers(0, 15), min_size=size, max_size=size))
        masks = [sum(3 << 2 * k for k in range(4) if q >> k & 1) for q in nibbles]
        rec = bytes(b & k for b, k in zip(cur, masks))
    return m, n, set_padding(cur, m * n), set_padding(rec, m * n)


_WIDE = np.random.default_rng(64).integers(0, 256, size=(2, 64 * 64 // 4), dtype=np.uint8)


@given(payload_pairs())
@settings(max_examples=200)
@example((64, 64, _WIDE[0].tobytes(), _WIDE[1].tobytes()))
def test_merging_decoded_payloads_matches_the_reference_merge_of_their_cells(case):
    m, n, cur, rec = case
    merged, changed = aggregate(decode(cur, Z, m, n), decode(rec, Z, m, n))
    want, want_changed = reference_aggregate(
        reference_decode(cur, Z, m, n), reference_decode(rec, Z, m, n)
    )
    assert encode(merged) == reference_encode(want)
    assert changed is want_changed
    assert merged.shape == (m, n) and np.array_equal(merged.cells, want.cells)


def test_a_write_into_cells_is_seen_by_the_next_encode():
    rows = [[3, 2, 0], [1, 2, 2], [0, 0, 3]]  # nine cells: the last byte pads
    fresh = SensingMatrix(Z, rows)
    encode(fresh)
    decoded = decode(encode(fresh), Z, 3, 3)
    free = decode(encode(SensingMatrix(Z, np.full((3, 3), 2))), Z, 3, 3)
    merged, _ = aggregate(decoded, free)
    reencoded = decode(encode(fresh), Z, 3, 3)
    encode(reencoded)
    for mat in (fresh, decoded, merged, reencoded):
        before = encode(mat)
        mat.cells[2, 2] ^= 1
        assert encode(mat) != before
        assert encode(mat) == reference_encode(SensingMatrix(Z, mat.cells.copy()))


def test_printing_a_matrix_reads_its_bytes_and_keeps_them():
    built = SensingMatrix(Z, [[3, 2, 0], [1, 2, 2], [0, 0, 3]])
    decoded = decode(encode(built), Z, 3, 3)
    merged, _ = aggregate(decoded, SensingMatrix(Z, np.full((3, 3), 2)))
    grid = GridConfig(zone_side=15.0, block_side=5.0)  # 3 x 3 blocks
    world = GroundTruth(objects=(((12.0, 7.0), 1.0),), vehicles=((1, (2.0, 2.0), 0.0),))
    perceived = perceive(1, (2.0, 2.0), world, locate_zone((2.0, 2.0), grid), grid, 8.0)
    for mat in (decoded, merged, perceived):
        wire = encode(mat)
        repr(mat), format_matrix(mat)
        assert encode(mat) is wire and mat._cells is None
    built.cells[2, 2] = BlockState.UNCERTAIN  # cells-backed from here on
    assert format_matrix(built).splitlines()[0] == "00 00 01"
    assert "[0, 0, 1]]" in repr(built)


def test_cells_cannot_be_assigned_and_the_constructor_copies_its_input():
    rows = [[3, 2, 0], [1, 2, 2], [0, 0, 3]]  # nine cells: the last byte pads
    built = SensingMatrix(Z, rows)
    decoded = decode(encode(built), Z, 3, 3)
    merged, _ = aggregate(decoded, SensingMatrix(Z, np.full((3, 3), 2)))
    grid = GridConfig(zone_side=15.0, block_side=5.0)  # 3 x 3 blocks
    world = GroundTruth(objects=(((12.0, 7.0), 1.0),), vehicles=((1, (2.0, 2.0), 0.0),))
    perceived = perceive(1, (2.0, 2.0), world, locate_zone((2.0, 2.0), grid), grid, 8.0)
    for mat in (built, decoded, merged, perceived):
        wire = encode(mat)
        with pytest.raises(AttributeError):
            mat.cells = np.array([[7, 9], [300, 0]])
        assert mat.shape == (3, 3) and encode(mat) == wire
        given = mat.cells.copy()
        rebuilt = SensingMatrix(mat.zone, given)
        given ^= 1
        assert rebuilt == mat and encode(rebuilt) == wire


def test_zone_and_shape_cannot_be_assigned_and_copies_keep_both():
    built = SensingMatrix(Z, np.array([[1, 2], [3, 0]]))
    merged, _ = aggregate(decode(encode(built), Z, 2, 2), SensingMatrix(Z, np.full((2, 2), 2)))
    for mat in (built, merged, merged.copy()):
        wire = encode(mat)
        for name, value in (("shape", (5, 5)), ("zone", ZoneIndex(1, 0))):
            with pytest.raises(AttributeError):
                setattr(mat, name, value)
        assert (mat.zone, mat.shape) == (Z, (2, 2)) and encode(mat) == wire
        assert mat.cells.shape == (2, 2)  # a read makes the cells the backing
        for twin in (copy.copy(mat), copy.deepcopy(mat), pickle.loads(pickle.dumps(mat))):
            assert type(twin) is SensingMatrix and twin == mat and encode(twin) == wire
            with pytest.raises(AttributeError):
                twin.shape = (5, 5)
    assert encode(built) == bytes.fromhex("6c")


def test_comparing_a_wire_backed_and_a_cells_backed_matrix_converts_neither():
    cells_backed = SensingMatrix(Z, [[3, 2, 0], [1, 2, 2]])
    other_cells = SensingMatrix(Z, [[3, 2, 0], [1, 2, 3]])
    for mat in (cells_backed, other_cells):
        mat.cells  # a read makes the cells the backing
    wire_backed = decode(encode(cells_backed), Z, 2, 3)
    assert wire_backed == cells_backed and cells_backed == wire_backed
    assert wire_backed != other_cells and other_cells != wire_backed
    for mat in (cells_backed, other_cells):
        assert mat._wire is None and mat._cells is not None
    assert wire_backed._cells is None and wire_backed._wire == encode(cells_backed)


@given(st.one_of(matrices(), payloads()))
@example((1, 1, b"\x95"))  # one 10 cell; the padding bits read 01 01 01
def test_has_uncertain_reads_the_bytes_and_keeps_them(case):
    if isinstance(case, SensingMatrix):
        mat, ref = case, case.copy()  # reading ref's cells leaves mat's backing
    else:
        m, n, payload = case
        mat, ref = decode(payload, Z, m, n), reference_decode(payload, Z, m, n)
    wired = mat._wire is not None
    assert has_uncertain(mat) is bool((ref.cells == BlockState.UNCERTAIN).any())
    assert (mat._cells is None) is wired
