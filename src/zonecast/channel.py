"""Slot-level radio model: log-distance path loss, capture effect, and
constructive interference of byte-identical packets.

All transmissions of a slot start simultaneously (the protocol is slot
synchronous), so the only questions the channel answers are which packets a
listener can decode and whether the strongest captures: whether the others'
linear power ratios to it, ``10**((p - strongest)/10)``, sum to at most
``10**(-capture_threshold/10)``.

Stations do not move during a run, so the link geometry is static: a
LinkTable lists each station's neighbours within comm_range with their
received powers, built once per run. Powers come from received_power itself,
one call per in-range pair, so they are bit-identical to the scalar model.
numpy's log10 and hypot are not: they differ in the last bit on a few percent
of pairs, which can flip a capture decision that sits on its threshold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .grid import ConfigError, Position, ZoneIndex

DELIVERED = "delivered"
COLLISION = "collision"
SILENCE = "silence"


class DegenerateGeometryError(ValueError):
    """Transmitter and receiver share a position; path loss is undefined."""


class InvalidSlotError(ValueError):
    """A slot's packets name a sender twice or one that is not a station, or
    a link table lists a station id twice."""


@dataclass(frozen=True)
class ChannelConfig:
    comm_range: float = 100.0
    capture_threshold: float = 3.0  # dB above the sum of all other signals
    path_loss_exponent: float = 2.0

    def __post_init__(self) -> None:
        if not self.comm_range > 0:
            raise ConfigError("comm_range must be positive")
        if not self.capture_threshold >= 0:
            raise ConfigError("capture_threshold must be non-negative")
        # received_power scales the exponent by 10 * log10(d), and every
        # positive double d has |log10(d)| < 324: below this no power overflows.
        if not 0 < self.path_loss_exponent * 3240 < math.inf:
            raise ConfigError("path_loss_exponent must be positive and below about 5.5e304")


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
class Outcome:
    """Per-receiver slot result: DELIVERED (with the packet), COLLISION, or
    SILENCE (nothing decodable in range, or the receiver was transmitting)."""

    kind: str
    packet: Optional[Packet] = None


def received_power(tx_pos: Position, rx_pos: Position, cfg: ChannelConfig) -> float:
    """Received power in dB relative to 1 m, under log-distance path loss."""
    d = math.dist(tx_pos, rx_pos)
    if d == 0:
        raise DegenerateGeometryError(f"transmitter and receiver both at {tx_pos!r}")
    return -10.0 * cfg.path_loss_exponent * math.log10(d)


@dataclass(frozen=True, eq=False)
class LinkTable:
    """Static link geometry among a run's stations, as neighbour lists.

    ``index`` maps a station id to its position k in the station list, and
    ``links[k]`` maps the position j of every other station within comm_range
    of station k to received_power between them; no other pair has an entry.
    """

    index: dict[int, int]
    links: list[dict[int, float]]


def link_table(stations: list[tuple[int, Position]], cfg: ChannelConfig) -> LinkTable:
    """Link every pair of stations within comm_range with the scalar model.

    math.dist is symmetric, so each unordered pair is measured once and
    linked both ways; received_power is called only for in-range pairs.
    Raises InvalidSlotError for a station id listed twice and
    DegenerateGeometryError for two stations at one position.
    """
    index = {sid: k for k, (sid, _) in enumerate(stations)}
    if len(index) != len(stations):
        raise InvalidSlotError("duplicate station id in link table")
    links: list[dict[int, float]] = [{} for _ in stations]
    for (i, rpos), (j, spos) in itertools.combinations(enumerate(p for _, p in stations), 2):
        if math.dist(spos, rpos) <= cfg.comm_range:
            links[i][j] = links[j][i] = received_power(spos, rpos, cfg)
    return LinkTable(index, links)


_SILENT = Outcome(SILENCE)
_COLLIDED = Outcome(COLLISION)


def resolve_slot(packets: list[Packet], table: LinkTable, cfg: ChannelConfig) -> dict[int, Outcome]:
    """Decide what every station of ``table`` hears in one slot, keyed by id
    in ascending order.

    Byte-identical packets form one constructively interfering group. A
    listener hears a group through its linked members, those within
    comm_range, and the group's power there is its strongest linked member's
    (ties go to the lowest sender id); a member out of range never counts,
    even when a float tie across the range edge gives it the same power. The
    strongest audible group is delivered when the others' linear ratios to
    it, ``10**((p - strongest)/10)`` summed in rank order, come to at most
    ``10**(-capture_threshold/10)``; else the slot is a collision. No ratio
    exceeds 1 and an exact tie is 1.0 on any libm. Senders are half-duplex
    and always hear silence. Raises InvalidSlotError for a sender named twice
    or not a station of the table.
    """
    senders = {pkt.sender for pkt in packets}
    if len(senders) != len(packets):
        raise InvalidSlotError("duplicate sender id in slot")
    unknown = senders - table.index.keys()
    if unknown:
        raise InvalidSlotError(f"senders {sorted(unknown)} are not stations of the link table")
    stations = sorted(table.index.items())
    outcomes = {sid: _SILENT for sid, _ in stations}
    if not packets or len(packets) == len(stations):  # nobody sends or nobody listens
        return outcomes

    # Per station and audible group, the (power, packet) of its strongest
    # linked member; senders go by ascending id, so strict > keeps the lowest.
    groups: dict[tuple[ZoneIndex, bytes], int] = {}
    heard: list[dict[int, tuple[float, Packet]]] = [{} for _ in table.links]
    for pkt in sorted(packets, key=lambda pkt: pkt.sender):
        g = groups.setdefault((pkt.zone, pkt.payload), len(groups))
        for k, p in table.links[table.index[pkt.sender]].items():
            best = heard[k]
            if g not in best or p > best[g][0]:
                best[g] = (p, pkt)
    bound = 10.0 ** (-cfg.capture_threshold / 10.0)
    for rid, k in stations:
        got = heard[k]
        if not got or rid in senders:
            continue
        ranked = sorted(got.values(), key=lambda pp: (-pp[0], pp[1].sender))
        (strongest, pkt), others = ranked[0], ranked[1:]
        if sum(10.0 ** ((p - strongest) / 10.0) for p, _ in others) <= bound:
            outcomes[rid] = Outcome(DELIVERED, pkt)
        else:
            outcomes[rid] = _COLLIDED
    return outcomes
