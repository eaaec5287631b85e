"""Per-vehicle state machine for the slotted matrix-sharing protocol. These
are the engine's steps, not ``zonecast`` exports: callers run scenarios with
``run`` and read a vehicle's perceived matrix with ``perceive``.

A vehicle transmits in a slot exactly when its matrix changed in the previous
slot (or it was designated an initiator for slot 1). Deliveries are merged
with aggregate(); a merge that changes nothing schedules nothing, which is
what eventually silences the network.

Each vehicle keeps its matrix's wire bytes and sends them as they are. A
delivered frame byte-equal to them is counted and dropped without a decode
or a merge: merging a matrix into itself changes no cell. Every other merge
is kept in a memo that all vehicles of a run share, so each distinct
(receiver bytes, frame bytes) pair is decoded and merged once per run.

A run stays in bytes from perception on: ``perceive`` packs each vehicle's
cells once and hands out a wire-backed matrix, ``decode`` wraps the frame's
payload, the merge is a handful of bitwise operations on both payloads read
as Python ints, and ``encode`` returns the kept bytes, so no cell array is
built after perception (see ``sensing``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .channel import Packet
from .grid import GridConfig, Position, ZoneIndex, locate_zone
from .sensing import (
    GroundTruth,
    PayloadSizeError,
    SensingMatrix,
    aggregate,
    decode,
    encode,
    has_uncertain,
    perceive,
)


# A merge memo: (zone, shape, receiver payload, frame payload) -> the merged
# matrix, its payload and whether the merge changed the receiver's cells.
Merges = dict[tuple[ZoneIndex, tuple[int, ...], bytes, bytes], tuple[SensingMatrix, bytes, bool]]


@dataclass
class VehicleState:
    """One vehicle's protocol state. ``payload`` is always
    ``encode(matrix)``: it is set on construction and again whenever
    ``on_delivery``'s merge changes the matrix.

    ``merges`` is the memo ``on_delivery`` reads and fills. Each state gets
    its own empty one; a run gives all its states the same dict, so a merged
    ``SensingMatrix`` may be shared between vehicles. Nothing in a run
    writes cells in place: a write into a state's ``matrix.cells`` would
    reach every vehicle that shares the matrix and leave ``payload`` stale.
    ``RunMetrics.final_matrix`` is a copy."""

    id: int
    matrix: SensingMatrix
    pending_tx: bool
    tx_slots: int = 0
    rx_slots: int = 0
    protocol_errors: int = 0
    payload: bytes = field(init=False, repr=False)
    merges: Merges = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.payload = encode(self.matrix)


def init_vehicle(
    vid: int,
    pos: Position,
    world: GroundTruth,
    grid: GridConfig,
    sensing_range: float,
) -> VehicleState:
    """Perceive the vehicle's zone and arm it for slot 1 if it holds any
    UNCERTAIN cell (such vehicles initiate the exchange)."""
    zone = locate_zone(pos, grid)
    matrix = perceive(vid, pos, world, zone, grid, sensing_range)
    return VehicleState(vid, matrix, pending_tx=has_uncertain(matrix))


def on_slot_begin(v: VehicleState) -> Optional[Packet]:
    """Emit this slot's packet, if one is pending.

    The packet carries the vehicle's kept bytes, with no encode; the pending
    flag is consumed so a vehicle sends at most once per change.
    """
    if not v.pending_tx:
        return None
    v.pending_tx = False
    v.tx_slots += 1
    return Packet(v.id, v.matrix.zone, v.payload)


def on_delivery(v: VehicleState, pkt: Packet) -> None:
    """Merge a delivered packet into the vehicle's matrix.

    Every reception is counted. Cross-zone packets and packets byte-equal to
    the vehicle's own payload are then dropped: the receiver's own bytes
    decode, under its shape, to its own matrix, and ``merge(x, x) = x`` for
    every cell. Malformed payloads are dropped and counted as protocol
    errors, every time. A merge that changed any cell re-encodes the payload
    and arms the vehicle for the next slot.

    Every other merge goes through ``v.merges``, keyed by zone, shape and
    both payloads. The memo is exact: ``encode`` zero-pads, so for one shape
    it is injective, and zone, shape and the receiver's payload fix the
    receiver's matrix. The frame's decode and the merge are then a pure
    function of the key, and a hit reuses the stored result without a
    decode, merge or encode.
    """
    v.rx_slots += 1
    if pkt.zone != v.matrix.zone or pkt.payload == v.payload:
        return
    key = (pkt.zone, v.matrix.shape, v.payload, pkt.payload)
    merged = v.merges.get(key)
    if merged is None:
        try:
            received = decode(pkt.payload, pkt.zone, v.matrix.m, v.matrix.n)
        except PayloadSizeError:
            v.protocol_errors += 1
            return
        matrix, changed = aggregate(v.matrix, received)
        merged = v.merges[key] = (matrix, encode(matrix) if changed else v.payload, changed)
    v.matrix, v.payload, changed = merged
    if changed:
        v.pending_tx = True


def is_globally_converged(all_states: list[VehicleState]) -> bool:
    """Omniscient-observer convergence: nobody pending and every vehicle
    holds the same matrix. Zone, shape and payload decide it, as equal
    payloads of one shape decode to equal cells; the shape is needed because
    a 2x2 and a 1x4 matrix with the same cells encode to the same byte. An
    empty list has nobody pending and no two matrices that differ."""
    if any(v.pending_tx for v in all_states):
        return False
    return len({(v.matrix.zone, v.matrix.shape, v.payload) for v in all_states}) <= 1
