"""Slot-level radio model: log-distance path loss, capture effect, and
constructive interference of byte-identical packets.

All transmissions of a slot start simultaneously (the protocol is slot
synchronous), so the only questions the channel answers are which packets a
listener can decode and whether the strongest rises far enough above the sum
of the rest.

Stations do not move during a run, so the link geometry is static: a
LinkTable is one square table over a run's stations, holding the power and
in-range flag of every pair, built once per run and consulted by every slot.
Its entries are filled by received_power and math.dist themselves, one call
per unordered pair, so they are bit-identical to the scalar model. numpy's
log10 and hypot are not: they differ in the last bit on a few percent of
pairs, which can flip a capture decision whose margin is exactly 0 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .grid import Position, ZoneIndex

DELIVERED = "delivered"
COLLISION = "collision"
SILENCE = "silence"


class DegenerateGeometryError(ValueError):
    """Transmitter and receiver share a position; path loss is undefined."""


class InvalidSlotError(ValueError):
    """A slot contained two transmissions from the same sender."""


@dataclass(frozen=True)
class ChannelConfig:
    comm_range: float = 100.0
    capture_threshold: float = 3.0  # dB above the sum of all other signals
    path_loss_exponent: float = 2.0
    reference_power: float = 0.0  # dB at 1 m; only ratios matter

    def __post_init__(self) -> None:
        if self.comm_range <= 0:
            raise ValueError("comm_range must be positive")
        if self.capture_threshold < 0:
            raise ValueError("capture_threshold must be non-negative")
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")


@dataclass(frozen=True)
class Packet:
    """Wire frame: the sender's zone stamp plus its encoded matrix.

    The sender id is simulator bookkeeping, not wire bytes — two packets with
    equal zone and payload are indistinguishable on air, which is what lets
    distinct vehicles interfere constructively.
    """

    sender: int
    zone: ZoneIndex
    payload: bytes


@dataclass(frozen=True)
class Transmission:
    sender: int
    sender_pos: Position
    packet: Packet


@dataclass(frozen=True)
class Outcome:
    """Per-receiver slot result: DELIVERED (with the packet), COLLISION, or
    SILENCE (nothing decodable in range, or the receiver was transmitting)."""

    kind: str
    packet: Optional[Packet] = None


def received_power(tx_pos: Position, rx_pos: Position, cfg: ChannelConfig) -> float:
    """Received power in dB under log-distance path loss."""
    d = math.dist(tx_pos, rx_pos)
    if d == 0:
        raise DegenerateGeometryError(f"transmitter and receiver both at {tx_pos!r}")
    return cfg.reference_power - 10.0 * cfg.path_loss_exponent * math.log10(d)


@dataclass(frozen=True, eq=False)
class LinkTable:
    """Static link geometry among a run's stations, one row and column each.

    With ``i, j = index[r], index[s]``, ``power[i, j]`` is received_power
    between stations r and s, and ``in_range[i, j]`` whether they are at most
    comm_range apart. A station's entry for itself is -inf and out of range.
    """

    index: dict[int, int]
    power: np.ndarray
    in_range: np.ndarray


def link_table(stations: list[tuple[int, Position]], cfg: ChannelConfig) -> LinkTable:
    """Tabulate the link between every pair of stations with the scalar model.

    math.dist is symmetric, so each unordered pair is computed once and
    mirrored. Raises DegenerateGeometryError for two stations at one position.
    """
    power = np.full((len(stations), len(stations)), -np.inf)
    in_range = np.zeros(power.shape, dtype=bool)
    for i, (_, rpos) in enumerate(stations):
        others = stations[i + 1 :]
        power[i, i + 1 :] = [received_power(spos, rpos, cfg) for _, spos in others]
        in_range[i, i + 1 :] = [math.dist(spos, rpos) <= cfg.comm_range for _, spos in others]
    return LinkTable(
        {sid: k for k, (sid, _) in enumerate(stations)},
        np.fmax(power, power.T),
        in_range | in_range.T,
    )


_SILENT = Outcome(SILENCE)
_COLLIDED = Outcome(COLLISION)


def resolve_slot(
    txs: list[Transmission],
    receivers: list[tuple[int, Position]],
    cfg: ChannelConfig,
    table: Optional[LinkTable] = None,
) -> dict[int, Outcome]:
    """Decide what every receiver hears in one slot.

    Byte-identical packets form one constructively interfering group whose
    power at a receiver is its strongest member's power (ties go to the
    lowest sender id). Groups with no member within comm_range are
    inaudible. A single audible group is delivered; among several, the
    strongest is delivered only if it exceeds the linear-scale sum of the
    others by capture_threshold dB, else the slot is a collision. Senders are
    half-duplex and always hear silence.

    ``table`` must cover every receiver and sender; engines pass one built
    per run. Without it the slot tabulates its listeners and senders with
    link_table, so two stations at one position anywhere in the slot raise
    DegenerateGeometryError.
    """
    senders = {t.sender for t in txs}
    if len(senders) != len(txs):
        raise InvalidSlotError("duplicate sender id in slot")
    outcomes = {rid: _SILENT for rid, _ in receivers}
    listeners = [(rid, rpos) for rid, rpos in receivers if rid not in senders]
    if not txs or not listeners:
        return outcomes
    if table is None:
        table = link_table(listeners + [(t.sender, t.sender_pos) for t in txs], cfg)

    groups: dict[tuple[ZoneIndex, bytes], list[Transmission]] = {}
    for t in sorted(txs, key=lambda t: t.sender):
        groups.setdefault((t.packet.zone, t.packet.payload), []).append(t)
    # Columns run group by group, each group's members by ascending id, so
    # the first column reaching a group's best power is its lowest-id member.
    # Rows are every station of the table; listeners pick theirs by id.
    members = [t for g in groups.values() for t in g]
    sizes = [len(g) for g in groups.values()]
    starts = list(accumulate(sizes[:-1], initial=0))
    cols = [table.index[t.sender] for t in members]
    power = table.power[:, cols]
    reach = table.in_range[:, cols]
    if len(groups) == len(members):
        # One sender per group: every group reduction is the identity.
        best, audible, winner = power, reach, None
    else:
        best = np.maximum.reduceat(power, starts, axis=1)
        audible = np.logical_or.reduceat(reach, starts, axis=1)
        is_best = power == best.repeat(sizes, axis=1)
        winner = np.minimum.reduceat(
            np.where(is_best, np.arange(len(members)), len(members)), starts, axis=1
        )
    # Per station (table row), the (power, member) of every group it hears.
    hits = np.nonzero(audible)
    winners = hits[1] if winner is None else winner[hits]
    heard: dict[int, list[tuple[float, int]]] = {}
    for k, p, w in zip(hits[0].tolist(), best[hits].tolist(), winners.tolist()):
        heard.setdefault(k, []).append((p, w))
    for rid, _ in listeners:
        groups_heard = heard.get(table.index[rid])
        if groups_heard is None:
            continue
        if len(groups_heard) == 1:
            outcomes[rid] = Outcome(DELIVERED, members[groups_heard[0][1]].packet)
            continue
        groups_heard.sort(key=lambda item: (-item[0], members[item[1]].sender))
        strongest, w = groups_heard[0]
        others_linear = sum(10.0 ** (p / 10.0) for p, _ in groups_heard[1:])
        margin = strongest - 10.0 * math.log10(others_linear)
        if margin >= cfg.capture_threshold:
            outcomes[rid] = Outcome(DELIVERED, members[w].packet)
        else:
            outcomes[rid] = _COLLIDED
    return outcomes
