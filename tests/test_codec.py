"""Wire codec: 2-bit cell packing, byte order, and payload-size rules.

The reference packing below is written independently of the library (pure
Python bit twiddling over the row-major cell list) so the two implementations
check each other.
"""

import numpy as np
import pytest

from zonecast import (
    BlockState,
    SensingMatrix,
    ZoneIndex,
    decode,
    encode,
)
from zonecast.sensing import PayloadSizeError

Z = ZoneIndex(0, 0)


def reference_encode(cells: np.ndarray) -> bytes:
    """Pack row-major cells at 2 bits each, first cell in the two MSBs."""
    flat = [int(v) for v in cells.reshape(-1)]
    out = bytearray()
    for i in range(0, len(flat), 4):
        c0, c1, c2, c3 = flat[i : i + 4]
        out.append((c0 << 6) | (c1 << 4) | (c2 << 2) | c3)
    return bytes(out)


def random_matrix(rng, m=20, n=20) -> SensingMatrix:
    return SensingMatrix(Z, rng.integers(0, 4, size=(m, n), dtype=np.uint8))


def test_two_by_two_packs_into_single_known_byte():
    # cells row-major from the south-west: 3,2,1,0 -> 11 10 01 00 -> 0xE4
    cells = np.array([[3, 2], [1, 0]], dtype=np.uint8)
    assert encode(SensingMatrix(Z, cells)) == b"\xe4"


def test_uniform_matrices_encode_to_repeated_bytes():
    full = np.zeros((20, 20), dtype=np.uint8)
    assert encode(SensingMatrix(Z, full)) == b"\x00" * 100
    assert encode(SensingMatrix(Z, full + 1)) == b"\x55" * 100
    assert encode(SensingMatrix(Z, full + 2)) == b"\xaa" * 100
    assert encode(SensingMatrix(Z, full + 3)) == b"\xff" * 100


def test_default_zone_payload_is_100_bytes():
    rng = np.random.default_rng(0)
    assert len(encode(random_matrix(rng))) == 100


def test_encode_matches_reference_bit_packing():
    rng = np.random.default_rng(1)
    for _ in range(200):
        mat = random_matrix(rng)
        assert encode(mat) == reference_encode(mat.cells)


def test_decode_inverts_encode():
    rng = np.random.default_rng(2)
    for _ in range(200):
        mat = random_matrix(rng)
        back = decode(encode(mat), Z, 20, 20)
        assert back == mat
        assert back.zone == Z


def test_decode_checks_payload_length():
    with pytest.raises(PayloadSizeError):
        decode(b"\x00" * 99, Z, 20, 20)
    with pytest.raises(PayloadSizeError):
        decode(b"\x00" * 101, Z, 20, 20)


def test_decode_checks_dimensions_before_the_length():
    for m, n in ((-2, -2), (2, -1), (2.0, 2.0), (True, 1), ("2", 2), (None, 2)):
        with pytest.raises(ValueError, match="m and n must be non-negative integers"):
            decode(b"\x00", Z, m, n)
    wide = decode(b"\x00" * 10_000, Z, np.uint8(200), np.int64(200))
    assert wide.shape == (200, 200) and wide == SensingMatrix(Z, np.zeros((200, 200), np.uint8))
    assert decode(b"", Z, 0, 5).shape == (0, 5)


def test_unaligned_cell_count_pads_final_byte_with_zero_bits():
    # 3 cells -> one byte, last bit pair zero-filled.
    mat = SensingMatrix(Z, np.array([[3, 2, 1]], dtype=np.uint8))
    assert encode(mat) == bytes([(3 << 6) | (2 << 4) | (1 << 2)])
    assert decode(encode(mat), Z, 1, 3) == mat


def test_unaligned_roundtrip_and_length():
    rng = np.random.default_rng(9)
    for shape in ((3, 3), (1, 5), (5, 5)):
        mat = SensingMatrix(Z, rng.integers(0, 4, size=shape, dtype=np.uint8))
        data = encode(mat)
        assert len(data) == (shape[0] * shape[1] + 3) // 4
        assert decode(data, Z, *shape) == mat
    with pytest.raises(PayloadSizeError):
        decode(b"\x00" * 2, Z, 3, 3)  # 9 cells need 3 bytes
    with pytest.raises(PayloadSizeError):
        decode(b"\x00" * 4, Z, 3, 3)


def test_non_square_shape_roundtrips():
    rng = np.random.default_rng(3)
    mat = SensingMatrix(Z, rng.integers(0, 4, size=(2, 6), dtype=np.uint8))
    assert decode(encode(mat), Z, 2, 6) == mat


def test_matrix_rejects_cell_values_above_three():
    bad = np.full((2, 2), 4, dtype=np.uint8)
    with pytest.raises(ValueError):
        SensingMatrix(Z, bad)


def test_block_state_wire_pairs():
    assert int(BlockState.OUT_OF_SENSING) == 0b00
    assert int(BlockState.UNCERTAIN) == 0b01
    assert int(BlockState.NO_OBJECT) == 0b10
    assert int(BlockState.OBJECT) == 0b11
    assert not BlockState.OUT_OF_SENSING.sensed
    assert not BlockState.UNCERTAIN.sensed
    assert BlockState.NO_OBJECT.sensed
    assert BlockState.OBJECT.sensed
