"""Per-vehicle state machine for the slotted matrix-sharing protocol.

A vehicle transmits in a slot exactly when its matrix changed in the previous
slot (or it was designated an initiator for slot 1). Deliveries are merged
with aggregate(); a merge that changes nothing schedules nothing, which is
what eventually silences the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .channel import Packet
from .grid import GridConfig, Position, locate_zone
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


@dataclass
class VehicleState:
    id: int
    position: Position
    matrix: SensingMatrix
    pending_tx: bool
    tx_slots: int = 0
    rx_slots: int = 0
    protocol_errors: int = 0


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
    return VehicleState(vid, pos, matrix, pending_tx=has_uncertain(matrix))


def on_slot_begin(v: VehicleState) -> Optional[Packet]:
    """Emit this slot's packet, if one is pending.

    The packet snapshots the current matrix; the pending flag is consumed so
    a vehicle sends at most once per change.
    """
    if not v.pending_tx:
        return None
    v.pending_tx = False
    v.tx_slots += 1
    return Packet(v.id, v.matrix.zone, encode(v.matrix))


def on_delivery(v: VehicleState, pkt: Packet) -> None:
    """Merge a delivered packet into the vehicle's matrix.

    Cross-zone packets are dropped after counting the reception; malformed
    payloads are dropped and counted as protocol errors. A merge that changed
    any cell arms the vehicle for the next slot.
    """
    v.rx_slots += 1
    if pkt.zone != v.matrix.zone:
        return
    try:
        received = decode(pkt.payload, pkt.zone, v.matrix.m, v.matrix.n)
    except PayloadSizeError:
        v.protocol_errors += 1
        return
    v.matrix, changed = aggregate(v.matrix, received)
    v.pending_tx = v.pending_tx or changed


def is_globally_converged(all_states: list[VehicleState]) -> bool:
    """Omniscient-observer convergence: nobody pending and every vehicle
    holds the byte-identical matrix."""
    if any(v.pending_tx for v in all_states):
        return False
    first = all_states[0].matrix
    return all(v.matrix == first for v in all_states[1:])
