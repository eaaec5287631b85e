"""Tests for the per-vehicle protocol state machine."""

from unittest import mock

import numpy as np
import pytest

import zonecast.protocol as protocol
from zonecast import (
    BlockState,
    GridConfig,
    GroundTruth,
    Packet,
    SensingMatrix,
    ZoneIndex,
    encode,
)
from zonecast.protocol import (
    VehicleState,
    init_vehicle,
    is_globally_converged,
    on_delivery,
    on_slot_begin,
)

OUT = int(BlockState.OUT_OF_SENSING)
UNC = int(BlockState.UNCERTAIN)
FREE = int(BlockState.NO_OBJECT)
OBJ = int(BlockState.OBJECT)

Z = ZoneIndex(0, 0)
G2 = GridConfig(zone_side=10.0, block_side=5.0)  # 2x2 blocks, 1-byte payload


def mat(rows) -> SensingMatrix:
    return SensingMatrix(Z, np.array(rows, dtype=np.uint8))


def state(rows, pending=False, vid=1) -> VehicleState:
    return VehicleState(vid, mat(rows), pending_tx=pending)


def raise_if_called(*args):
    raise AssertionError("must not be called")


# ---------------------------------------------------------------------------
# init_vehicle


def test_init_vehicle_without_occlusion_is_idle():
    world = GroundTruth(vehicles=((1, (2.5, 2.5), 0.0),))
    v = init_vehicle(1, (2.5, 2.5), world, G2, sensing_range=100.0)
    assert v.id == 1
    assert v.matrix.zone == Z
    assert v.matrix.cells.shape == (2, 2)
    assert not v.pending_tx  # fully sensed zone, nothing to ask about
    assert v.tx_slots == v.rx_slots == v.protocol_errors == 0


def test_init_vehicle_with_uncertain_cell_is_armed():
    # A disc between the vehicle and the far block row shadows a block,
    # leaving an UNCERTAIN cell that arms the vehicle for slot 1.
    g = GridConfig(zone_side=15.0, block_side=5.0)
    world = GroundTruth(
        objects=(((7.5, 7.5), 1.0),),
        vehicles=((1, (7.5, 2.5), 0.0),),
    )
    v = init_vehicle(1, (7.5, 2.5), world, g, sensing_range=100.0)
    assert UNC in v.matrix.cells
    assert v.pending_tx


def test_init_vehicle_limited_range_does_not_arm():
    # OUT_OF_SENSING cells alone (no occlusion) do not trigger transmission.
    g = GridConfig(zone_side=15.0, block_side=5.0)
    world = GroundTruth(vehicles=((1, (7.5, 2.5), 0.0),))
    v = init_vehicle(1, (7.5, 2.5), world, g, sensing_range=6.0)
    assert OUT in v.matrix.cells
    assert not v.pending_tx


# ---------------------------------------------------------------------------
# on_slot_begin


def test_on_slot_begin_emits_snapshot_and_consumes_flag():
    v = state([[FREE, OBJ], [OUT, UNC]], pending=True, vid=7)
    sent = on_slot_begin(v)
    assert sent == Packet(7, Z, encode(v.matrix))
    assert v.tx_slots == 1
    assert not v.pending_tx
    assert on_slot_begin(v) is None  # sends at most once per change
    assert v.tx_slots == 1


def test_on_slot_begin_sends_kept_bytes_without_encoding(monkeypatch):
    v = state([[FREE, OBJ], [OUT, UNC]], pending=True, vid=7)
    kept = v.payload
    assert kept == encode(v.matrix)
    monkeypatch.setattr(protocol, "encode", raise_if_called)
    assert on_slot_begin(v) == Packet(7, Z, kept)


def test_payload_is_left_out_of_repr():
    v = state([[FREE, OBJ], [OUT, UNC]])
    assert "payload" not in repr(v)


def test_on_slot_begin_idle_vehicle_stays_silent():
    v = state([[FREE, FREE], [FREE, FREE]])
    assert on_slot_begin(v) is None
    assert v.tx_slots == 0


# ---------------------------------------------------------------------------
# on_delivery


def pkt(rows, zone=Z, sender=2) -> Packet:
    return Packet(sender, zone, encode(SensingMatrix(zone, np.array(rows, np.uint8))))


def test_delivery_merges_and_arms():
    v = state([[OUT, OUT], [OUT, OUT]])
    on_delivery(v, pkt([[FREE, OBJ], [FREE, FREE]]))
    assert v.rx_slots == 1
    assert v.matrix.cells.tolist() == [[FREE, OBJ], [FREE, FREE]]
    assert v.pending_tx
    assert v.payload == encode(v.matrix)  # re-encoded on change


def test_delivery_without_change_schedules_nothing():
    v = state([[FREE, OBJ], [FREE, FREE]])
    on_delivery(v, pkt([[FREE, OBJ], [FREE, FREE]]))
    assert v.rx_slots == 1
    assert not v.pending_tx


def test_delivery_preserves_existing_pending_flag():
    v = state([[FREE, OBJ], [FREE, FREE]], pending=True)
    on_delivery(v, pkt([[FREE, OBJ], [FREE, FREE]]))
    assert v.pending_tx  # an unchanged merge must not disarm the vehicle


def test_cross_zone_packet_is_counted_but_ignored():
    v = state([[OUT, OUT], [OUT, OUT]])
    on_delivery(v, pkt([[FREE, FREE], [FREE, FREE]], zone=ZoneIndex(3, -1)))
    assert v.rx_slots == 1
    assert v.protocol_errors == 0
    assert v.matrix.cells.tolist() == [[OUT, OUT], [OUT, OUT]]
    assert not v.pending_tx


def test_malformed_payload_counts_protocol_error():
    v = state([[OUT, OUT], [OUT, OUT]])
    on_delivery(v, Packet(2, Z, b"\x00\x00"))  # 2 bytes where 1 is expected
    assert v.rx_slots == 1
    assert v.protocol_errors == 1
    assert v.matrix.cells.tolist() == [[OUT, OUT], [OUT, OUT]]
    assert not v.pending_tx


def test_byte_equal_frame_moves_only_rx_slots(monkeypatch):
    v = state([[FREE, OBJ], [OUT, UNC]], pending=True)
    matrix, payload = v.matrix, v.payload
    monkeypatch.setattr(protocol, "decode", raise_if_called)
    monkeypatch.setattr(protocol, "aggregate", raise_if_called)
    on_delivery(v, Packet(2, Z, encode(mat([[FREE, OBJ], [OUT, UNC]]))))
    assert v.rx_slots == 1
    assert v.matrix is matrix and v.payload is payload
    assert v.pending_tx and v.tx_slots == 0 and v.protocol_errors == 0


def test_padding_bits_take_the_merge_path_and_change_nothing(monkeypatch):
    # A 3x3 matrix fills 2 bytes and one cell of a third; its other three bit
    # pairs are padding. Set, they make a frame that differs from the
    # receiver's bytes yet carries its cells: it is decoded and merged.
    rows = [[FREE, OBJ, OUT], [UNC, FREE, FREE], [OBJ, OUT, FREE]]
    v = state(rows)
    own = v.payload
    padded = own[:-1] + bytes([own[-1] | 0b00111111])
    decode = mock.Mock(wraps=protocol.decode)
    aggregate = mock.Mock(wraps=protocol.aggregate)
    monkeypatch.setattr(protocol, "decode", decode)
    monkeypatch.setattr(protocol, "aggregate", aggregate)
    on_delivery(v, Packet(2, Z, padded))
    assert decode.call_count == aggregate.call_count == 1
    assert v.rx_slots == 1
    assert v.matrix.cells.tolist() == rows
    assert v.payload == own
    assert not v.pending_tx


def test_conflicting_delivery_downgrades_to_uncertain():
    v = state([[OBJ, FREE], [FREE, FREE]])
    on_delivery(v, pkt([[FREE, FREE], [FREE, FREE]]))
    assert v.matrix.cells.tolist() == [[UNC, FREE], [FREE, FREE]]
    assert v.pending_tx


# ---------------------------------------------------------------------------
# is_globally_converged


def test_convergence_requires_identical_matrices_and_silence():
    a = state([[FREE, OBJ], [FREE, FREE]], vid=1)
    b = state([[FREE, OBJ], [FREE, FREE]], vid=2)
    assert is_globally_converged([a, b])


def test_convergence_fails_when_any_vehicle_pending():
    a = state([[FREE, FREE], [FREE, FREE]], vid=1)
    b = state([[FREE, FREE], [FREE, FREE]], pending=True, vid=2)
    assert not is_globally_converged([a, b])


def test_convergence_fails_on_cell_difference():
    a = state([[FREE, OBJ], [FREE, FREE]], vid=1)
    b = state([[FREE, FREE], [FREE, FREE]], vid=2)
    assert not is_globally_converged([a, b])


def test_convergence_fails_on_zone_mismatch():
    a = state([[FREE, FREE], [FREE, FREE]], vid=1)
    other = SensingMatrix(ZoneIndex(1, 0), np.full((2, 2), FREE, np.uint8))
    b = VehicleState(2, other, pending_tx=False)
    assert not is_globally_converged([a, b])


def test_convergence_fails_on_shape_mismatch_with_equal_bytes():
    # Four cells encode to one byte whatever the shape.
    a = state([[FREE, OBJ], [OUT, UNC]], vid=1)
    b = state([[FREE, OBJ, OUT, UNC]], vid=2)
    assert encode(a.matrix) == encode(b.matrix)
    assert a.matrix != b.matrix
    assert not is_globally_converged([a, b])


def test_no_vehicles_are_converged():
    assert is_globally_converged([])


def test_single_vehicle_converges_alone():
    a = state([[FREE, FREE], [FREE, FREE]], vid=1)
    assert is_globally_converged([a])


def test_uncertain_consensus_still_counts_as_converged():
    # Convergence is agreement, not completeness: a shared UNCERTAIN cell that
    # nobody can resolve is a legitimate terminal state.
    a = state([[UNC, FREE], [FREE, FREE]], vid=1)
    b = state([[UNC, FREE], [FREE, FREE]], vid=2)
    assert is_globally_converged([a, b])
