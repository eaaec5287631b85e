"""Slot-level radio model: log-distance path loss, capture effect, and
constructive interference of byte-identical packets.

All transmissions of a slot start simultaneously (the protocol is slot
synchronous), so the only questions the channel answers are which packets a
listener can decode and whether the strongest captures: whether the others'
linear power ratios to it, ``10**((p - strongest)/10)``, added left to right
in rank order, sum to at most ``10**(-capture_threshold/10)``.

Stations do not move during a run, so the link geometry is static: a
LinkTable lists each station's neighbours within comm_range with their
received powers, measured on first read, so a run in which no slot has both
a sender and a listener, as in the default scenario, measures none. Only
pairs in one square or two neighbouring squares of side about comm_range
(grid._square) are measured, each once, and each pair in range calls
received_power once, so powers are bit-identical to the scalar model.
numpy's log10 and hypot are not: they differ in the last bit on a few
percent of pairs, which can flip a capture decision on its threshold.

A slot is decided one of two ways, with the same outcomes. A small slot runs
the scalar rule per listener: rank its audible groups, then fold their
ratios. A dense slot, whose senders hold at least ``_DENSE_SLOT_LINKS`` link
entries, reads the table's neighbour rows, ranked once per table by (power
descending, sender id): the groups' ratios come from ``np.power`` and their
per-row sums from ``np.add.reduceat``. That float filter decides only the
rows whose sum lies clear of the bound by more than its derived error
(``_dense``); the scalar fold decides the close calls.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .grid import ConfigError, Position, ZoneIndex, _square, _square_side

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
    The links, and what resolve_slot derives from them, are built on the
    first read that needs them and kept, and freed, with the table.
    """

    index: dict[int, int]
    stations: tuple[tuple[int, Position], ...]
    cfg: ChannelConfig

    @cached_property
    def links(self) -> list[dict[int, float]]:
        # Stations in range lie at most one square apart (grid._square), so each pair is
        # measured once, in a square or with one of its four forward neighbours. Non-finite
        # stations are in range of none unless comm_range is inf (one square).
        reach, points = self.cfg.comm_range, list(enumerate(pos for _, pos in self.stations))
        finite = (pos for _, pos in points if all(map(math.isfinite, pos)))
        side = _square_side(reach, len(points), finite)  # reads finite only past 64 points
        squares = defaultdict(list, {} if side < math.inf else {(0, 0): points})
        for k, pos in points if side < math.inf else ():
            if all(map(math.isfinite, pos)):
                squares[_square(pos, side)].append((k, pos))
        links: list[dict[int, float]] = [{} for _ in self.stations]
        for (cx, cy), here in squares.items():
            ahead = ((cx + 1, cy), (cx - 1, cy + 1), (cx, cy + 1), (cx + 1, cy + 1))
            ahead = [pt for key in ahead for pt in squares.get(key, ())]
            pairs = itertools.chain(itertools.combinations(here, 2), itertools.product(here, ahead))
            for (i, p), (j, q) in pairs:
                if math.dist(q, p) <= reach:
                    if i > j:
                        i, p, j, q = j, q, i, p
                    links[i][j] = links[j][i] = received_power(q, p, self.cfg)
        return links

    @cached_property
    def _ids(self) -> list[int]:
        """Station ids by position k."""
        return [sid for sid, _ in self.stations]

    @cached_property
    def _silence(self) -> dict[int, Outcome]:
        """Silence for every station, keyed by ascending id: a slot's outcomes
        start as a copy."""
        return dict.fromkeys(sorted(self.index), _SILENT)

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every link entry as (listener k, neighbour j, power) arrays. Each
        listener's entries form one contiguous row, in ascending k, ranked by
        power descending with ties to the lower neighbour id."""
        id_rank = np.empty(len(self.links), dtype=np.int64)
        id_rank[[self.index[sid] for sid in sorted(self.index)]] = np.arange(len(self.links))
        row = np.repeat(np.arange(len(self.links)), [len(nbrs) for nbrs in self.links])
        nbr = np.fromiter(itertools.chain.from_iterable(self.links), np.int64, len(row))
        power = np.fromiter(
            itertools.chain.from_iterable(nbrs.values() for nbrs in self.links), np.float64, len(row)
        )
        order = np.lexsort((id_rank[nbr], -power, row))
        return row[order], nbr[order], power[order]


def link_table(stations: list[tuple[int, Position]], cfg: ChannelConfig) -> LinkTable:
    """The link table of (id, position) ``stations``. Raises InvalidSlotError
    for a station id listed twice and DegenerateGeometryError for two
    stations at one finite position, where received_power is undefined.
    """
    index = {sid: k for k, (sid, _) in enumerate(stations)}
    if len(index) != len(stations):
        raise InvalidSlotError("duplicate station id in link table")
    finite = [tuple(pos) for _, pos in stations if all(map(math.isfinite, pos))]
    if len(set(finite)) != len(finite):
        raise DegenerateGeometryError("two stations share a position")
    return LinkTable(index, tuple(stations), cfg)


_SILENT = Outcome(SILENCE)
_COLLIDED = Outcome(COLLISION)

# A slot whose senders hold fewer link entries than this, in total, goes to
# the scalar loop, where the array path's fixed cost of a dozen numpy calls
# per slot loses. paper-fig7's slots hold at most 69 entries (master seed 42;
# 77 at seed 7), 225-vehicle fig9 slots a median of 1,525. Every cut from 64
# to 512 decided both sets of recorded slots in the same time.
_DENSE_SLOT_LINKS = 256


def resolve_slot(packets: list[Packet], table: LinkTable) -> dict[int, Outcome]:
    """Decide what every station of ``table`` hears in one slot, keyed by id
    in ascending order.

    Byte-identical packets form one constructively interfering group. A
    listener hears a group through its linked members, those within
    comm_range, and the group's power there is its strongest linked member's
    (ties go to the lowest sender id); a member out of range never counts,
    even when a float tie across the range edge gives it the same power. The
    strongest audible group is delivered when the others' linear ratios to
    it, ``10**((p - strongest)/10)`` added left to right in rank order, come
    to at most ``10**(-capture_threshold/10)`` for the table's ``cfg`` (see
    _captures); else the slot is a collision. No ratio exceeds 1 and an
    exact tie is 1.0 on any libm.
    Senders are half-duplex and always hear silence. Raises InvalidSlotError
    for a sender named twice or not a station of the table.
    """
    senders = {pkt.sender for pkt in packets}
    if len(senders) != len(packets):
        raise InvalidSlotError("duplicate sender id in slot")
    unknown = senders - table.index.keys()
    if unknown:
        raise InvalidSlotError(f"senders {sorted(unknown)} are not stations of the link table")
    outcomes = dict(table._silence)
    if not packets or len(packets) == len(outcomes):  # nobody sends or nobody listens
        return outcomes

    # Each sending station's group and what its listeners get if it wins,
    # by ascending sender id.
    groups: dict[tuple[ZoneIndex, bytes], int] = {}
    sending: dict[int, tuple[int, Outcome]] = {}
    for pkt in sorted(packets, key=lambda pkt: pkt.sender):
        g = groups.setdefault((pkt.zone, pkt.payload), len(groups))
        sending[table.index[pkt.sender]] = (g, Outcome(DELIVERED, pkt))
    bound = 10.0 ** (-table.cfg.capture_threshold / 10.0)
    if sum(len(table.links[j]) for j in sending) >= _DENSE_SLOT_LINKS:
        _dense(sending, len(groups), table, bound, outcomes)
        return outcomes

    # Per listener that hears anything, each audible group's (power, outcome)
    # of its strongest linked member: senders go by ascending id, so strict >
    # keeps the lowest.
    heard: defaultdict[int, dict[int, tuple[float, Outcome]]] = defaultdict(dict)
    for j, (g, won) in sending.items():
        for k, p in table.links[j].items():
            best = heard[k]
            if g not in best or p > best[g][0]:
                best[g] = (p, won)
    ids = table._ids
    for k, got in heard.items():
        if k in sending:
            continue
        if len(got) == 1:
            ((_, won),) = got.values()
        else:
            (strongest, won), *others = sorted(
                got.values(), key=lambda pw: (-pw[0], pw[1].packet.sender)
            )
            if not _captures(strongest, [p for p, _ in others], bound):
                won = _COLLIDED
        outcomes[ids[k]] = won
    return outcomes


def _captures(strongest: float, others: list[float], bound: float) -> bool:
    """The capture rule: whether the ratios of ``others``, in rank order, to
    ``strongest`` sum to at most ``bound``.

    The sum is a plain left-to-right fold, the same bits on every Python:
    builtin ``sum`` compensates float sums since 3.12, which would move
    decisions that sit on the bound. Every ratio is non-negative, so the
    running sum never falls, and the fold stops once it exceeds the bound.
    """
    acc = 0.0
    for p in others:
        acc += 10.0 ** ((p - strongest) / 10.0)
        if acc > bound:
            return False
    return True


def _dense(
    sending: dict[int, tuple[int, Outcome]],
    n_groups: int,
    table: LinkTable,
    bound: float,
    outcomes: dict[int, Outcome],
) -> None:
    """Decide a slot over the table's ranked rows, into ``outcomes``.

    In each listener's row, the entries whose neighbour sends list the
    audible groups in rank order, and the first entry of a group is its
    strongest linked member, ties to the lowest id. The first group of a row
    is therefore its strongest; ``np.power`` gives every other group's ratio
    to it, and ``np.add.reduceat`` sums them to S' per row.

    The filter decides a row from S' only where S', the rule's fold S of the
    libm ratios (_captures) and the bound cannot be ordered differently.
    With n <= N - 1 other groups, N the stations, and each ratio at most 1:

    - Both compute ``10**x`` of the same x, since a float subtraction and
      division round the same in numpy and Python. They differ only in the
      power. numpy's SIMD loops need not call libm, and numpy documents no
      error bound for ``np.power``; numpy 2.4 on AVX-512 reads one ulp off
      libm on about 5% of ratios. The filter allows the two to differ by a
      relative 2**-40, over 4,000 ulp, and for a ratio below 2**-1022, where
      precision runs out or a loop may flush to zero, by an absolute
      2**-1022.
    - Summing n non-negative terms in any order is off from their exact sum
      by at most gamma_n = n*u/(1 - n*u) of it, u = 2**-53 (Higham,
      "Accuracy and Stability of Numerical Algorithms", 2002, 4.2): S over
      the libm ratios and S' over numpy's alike.

    So |S - S'| <= (2*gamma_n + 2**-40) * S' + n * 2**-1022, up to
    second-order terms, which doubling the first-order ones covers, with
    4*gamma_n <= N * 2**-50: ``tol = S' * (2**-39 + N * 2**-50) +
    N * 2**-1021``. A row with |S' - bound| > tol lies on the same side of
    the bound as S. Every other row, a sum exactly at the bound or a bound
    too small for the absolute term (a large capture_threshold) among them,
    is decided by _captures.
    """
    row, nbr, power = table._rows
    group = np.full(len(table.links), -1, dtype=np.int64)
    group[list(sending)] = [g for g, _ in sending.values()]
    entry_group = group[nbr]
    live = np.flatnonzero((entry_group >= 0) & (group < 0)[row])
    if not len(live):
        return
    _, first = np.unique(row[live] * n_groups + entry_group[live], return_index=True)
    heads = live[np.sort(first)]  # each row's audible groups, in rank order
    rows, powers = row[heads], power[heads]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    ends = np.append(starts[1:], len(heads))
    ratios = np.power(10.0, (powers - np.repeat(powers[starts], ends - starts)) / 10.0)
    ratios[starts] = 0.0
    sums = np.add.reduceat(ratios, starts)
    n = len(table.links)
    close = np.abs(sums - bound) <= sums * (2.0**-39 + n * 2.0**-50) + n * 2.0**-1021
    wins = (sums <= bound).tolist()
    for i in np.flatnonzero(close).tolist():
        strongest, *others = powers[starts[i] : ends[i]].tolist()
        wins[i] = _captures(strongest, others, bound)
    ids = table._ids
    for k, j, won in zip(rows[starts].tolist(), nbr[heads[starts]].tolist(), wins):
        outcomes[ids[k]] = sending[j][1] if won else _COLLIDED
