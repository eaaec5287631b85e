"""Property test: the protocol's kept payload against a literal reference.

The reference below is the protocol without kept bytes: it encodes on every
send, decodes and merges every delivery of its own zone, and compares
matrices with ``==`` for convergence. Random sequences of sends and
deliveries run on both, over 2-4 vehicles of 2x2, 3x3, 20x20 and 1x4
matrices. Frames carry the receiver's own bytes, another vehicle's, either
with its padding bits set, a packet sent earlier, another zone's stamp, or
a wrong length; a broadcast hands one vehicle's bytes to all the others
under each receiver's own zone. After every step each field must match the
reference, and the kept payload must equal ``encode(matrix)``. A second
test replays the same steps with one merge memo shared by all vehicles, as
a run shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zonecast import (
    Packet,
    SensingMatrix,
    ZoneIndex,
    aggregate,
    decode,
    encode,
)
from zonecast.protocol import VehicleState, is_globally_converged, on_delivery, on_slot_begin
from zonecast.sensing import PayloadSizeError

Z = ZoneIndex(0, 0)
OTHER_ZONE = ZoneIndex(1, 0)
SHAPES = ((2, 2), (3, 3), (20, 20), (1, 4))


@dataclass
class Reference:
    id: int
    matrix: SensingMatrix
    pending_tx: bool
    tx_slots: int = 0
    rx_slots: int = 0
    protocol_errors: int = 0


def reference_slot_begin(r: Reference) -> Optional[Packet]:
    if not r.pending_tx:
        return None
    r.pending_tx = False
    r.tx_slots += 1
    return Packet(r.id, r.matrix.zone, encode(r.matrix))


def reference_delivery(r: Reference, pkt: Packet) -> None:
    r.rx_slots += 1
    if pkt.zone != r.matrix.zone:
        return
    try:
        received = decode(pkt.payload, pkt.zone, r.matrix.m, r.matrix.n)
    except PayloadSizeError:
        r.protocol_errors += 1
        return
    r.matrix, changed = aggregate(r.matrix, received)
    r.pending_tx = r.pending_tx or changed


def reference_converged(refs: list[Reference]) -> bool:
    return not any(r.pending_tx for r in refs) and all(r.matrix == refs[0].matrix for r in refs)


def with_padding_set(data: bytes, cells: int) -> bytes:
    """``data`` with every padding bit pair past ``cells`` set to 11."""
    pad = -cells % 4
    return data[:-1] + bytes([data[-1] | (1 << 2 * pad) - 1]) if pad else data


MIXED_KINDS = tuple((zone, shape) for zone in (Z, OTHER_ZONE) for shape in ((2, 2), (1, 4)))


@st.composite
def fleets(draw):
    """(id, zone, cells, pending) per vehicle. Most fleets hold 2-4 vehicles
    of one zone and shape, each starting from one base matrix with up to two
    cells redrawn, so byte-equal frames and convergence both happen. A mixed
    fleet holds one vehicle of each (zone, shape) kind in ``MIXED_KINDS``,
    each with the cells of one of two shared 4-cell matrices, so equal bytes
    stand for matrices of different zones or shapes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        bases = rng.integers(0, 4, size=(2, 4), dtype=np.uint8)
        return [
            (vid, zone, bases[draw(st.integers(0, 1))].reshape(shape).copy(), draw(st.booleans()))
            for vid, (zone, shape) in enumerate(MIXED_KINDS, 1)
        ]
    base = rng.integers(0, 4, size=draw(st.sampled_from(SHAPES)), dtype=np.uint8)
    fleet = []
    for vid in range(1, draw(st.integers(2, 4)) + 1):
        cells = base.copy()
        flat = cells.reshape(-1)
        flat[rng.integers(flat.size, size=draw(st.integers(0, 2)))] = rng.integers(0, 4)
        fleet.append((vid, Z, cells, draw(st.booleans())))
    return fleet


FRAME_KINDS = ("own", "other", "own padded", "other padded", "sent", "cross-zone", "short", "long")

steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("send", "broadcast")), st.integers(0, 3)),
        st.tuples(
            st.just("deliver"),
            st.integers(0, 3),
            st.sampled_from(FRAME_KINDS),
            st.integers(0, 3),
        ),
    ),
    max_size=40,
)


def frame(kind: str, rx: Reference, other: Reference, sent: list[Packet], pick: int) -> Packet:
    """The frame of ``kind`` for receiver ``rx``; "sent" falls back to
    ``other``'s bytes until some packet was sent."""
    source = rx if kind.startswith("own") else other
    data = encode(source.matrix)
    if kind.endswith("padded"):
        data = with_padding_set(data, source.matrix.cells.size)
    if kind == "sent" and sent:
        return sent[pick % len(sent)]
    if kind == "cross-zone":
        return Packet(other.id, ZoneIndex(5, 5), data)
    if kind == "short":
        data = data[:-1]
    if kind == "long":
        data += b"\xff"
    return Packet(other.id, source.matrix.zone, data)


def assert_matches(states: list[VehicleState], refs: list[Reference]) -> None:
    for v, r in zip(states, refs):
        assert v.matrix == r.matrix
        assert (v.pending_tx, v.tx_slots, v.rx_slots, v.protocol_errors) == (
            r.pending_tx,
            r.tx_slots,
            r.rx_slots,
            r.protocol_errors,
        )
        assert v.payload == encode(v.matrix)
    assert is_globally_converged(states) == reference_converged(refs)


def deliver(v: VehicleState, r: Reference, pkt: Packet) -> None:
    on_delivery(v, pkt)
    reference_delivery(r, pkt)


def replay(fleet, ops, shared_memo: bool) -> None:
    """Run ``ops`` on the fleet's states and references, checking every field
    after each step. A "broadcast" hands one vehicle's bytes to every other
    vehicle, each under its own zone stamp."""
    states = [
        VehicleState(vid, SensingMatrix(zone, cells.copy()), pending_tx=p)
        for vid, zone, cells, p in fleet
    ]
    if shared_memo:
        for v in states:
            v.merges = states[0].merges
    refs = [Reference(vid, SensingMatrix(zone, cells.copy()), p) for vid, zone, cells, p in fleet]
    sent: list[Packet] = []
    assert_matches(states, refs)
    for op in ops:
        i = op[1] % len(states)
        if op[0] == "send":
            pkt = on_slot_begin(states[i])
            assert pkt == reference_slot_begin(refs[i])
            if pkt is not None:
                sent.append(pkt)
        elif op[0] == "broadcast":
            data = encode(refs[i].matrix)
            for k in range(len(states)):
                if k != i:
                    deliver(states[k], refs[k], Packet(refs[i].id, refs[k].matrix.zone, data))
        else:
            _, _, kind, j = op
            deliver(states[i], refs[i], frame(kind, refs[i], refs[j % len(refs)], sent, j))
        assert_matches(states, refs)


@settings(max_examples=100, deadline=None)
@given(fleets(), steps)
def test_kept_payload_matches_reference(fleet, ops):
    replay(fleet, ops, shared_memo=False)


@settings(max_examples=100, deadline=None)
@given(fleets(), steps)
def test_shared_merge_memo_matches_reference(fleet, ops):
    """The same fleets and steps with one merge memo for every vehicle, as a
    run gives them: a memo hit leaves every field as the reference's merge
    does, and a repeated malformed frame is still counted each time."""
    replay(fleet, ops, shared_memo=True)


def test_memo_keeps_zones_and_shapes_apart():
    # 00 00 00 00 is one byte under 2x2 and under 1x4, in either zone; so is
    # the frame's 10 10 10 10. The memo must hand no vehicle a merge made
    # under another zone or shape.
    kinds = [(zone, shape) for zone in (Z, OTHER_ZONE) for shape in ((2, 2), (1, 4))]
    fleet = [
        VehicleState(vid, SensingMatrix(zone, np.zeros(shape, np.uint8)), False)
        for vid, (zone, shape) in enumerate(kinds * 2)
    ]
    for v in fleet:
        v.merges = fleet[0].merges
    for v in fleet:  # the second four hit the entries the first four stored
        on_delivery(v, Packet(9, v.matrix.zone, b"\xaa"))
    assert len(fleet[0].merges) == 4
    for v, (zone, shape) in zip(fleet, kinds * 2):
        assert v.matrix == SensingMatrix(zone, np.full(shape, 2))
        assert (v.payload, v.pending_tx) == (b"\xaa", True)
