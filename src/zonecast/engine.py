"""Simulation engine for one zone: scenario construction, one slot loop
shared by two MACs, and seeded sweeps.

A run is a sequence of barrier-phased slots. Each MAC is a generator that
yields, per slot, who sent, what each vehicle that heard something heard
and the latency so far; the slot loop applies the deliveries and records
the slot, which ``RunMetrics.trace`` renders on first read. The
slotted MAC resolves synchronized slots on the
capture/constructive-interference channel; the CSMA baseline contends with
random backoff and carrier sense. The run ends at the first silent slot —
converged if every matrix is then identical, provably stalled otherwise (a
capture-less collision can legitimately stall the exchange) — or at the
max_slots safety cap (converged=False).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import partial
from struct import pack
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .channel import (
    DELIVERED,
    SILENCE,
    ChannelConfig,
    LinkTable,
    Packet,
    link_table,
    resolve_slot,
)
from .grid import ConfigError, GridConfig, Position, ZoneIndex, _square, _square_side, locate_zone
from .protocol import (
    Merges,
    VehicleState,
    init_vehicle,
    is_globally_converged,
    on_delivery,
    on_slot_begin,
)
from .sensing import GroundTruth, SensingMatrix, _is_int

MAX_SLOTS_CAP = 10_000


def _int(value: object, name: str) -> int:
    """``value`` as a Python int, or a ConfigError naming ``name`` if it is
    not an integer: as in scenario files, a bool is not one, and numpy
    integers are (see ``sensing._is_int``)."""
    if not _is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Placement:
    """Random vehicle placement: uniform in ``area`` (defaults to the zone at
    the grid origin), positions at least min_separation apart and, when
    ``connected`` is set, each within comm range of an earlier one."""

    count: int
    area: Optional[tuple[float, float, float, float]] = None
    min_separation: float = 1.0
    connected: bool = True


@dataclass(frozen=True)
class CsmaConfig:
    cw_min: int = 15
    cw_max: int = 1023
    micro_slot_us: float = 13.0

    def __post_init__(self) -> None:
        if _int(self.cw_min, "cw_min") < 1:
            raise ConfigError("cw_min must be >= 1")
        if not self.cw_min <= _int(self.cw_max, "cw_max") <= 2**63:  # backoffs are drawn as int64
            raise ConfigError(f"cw_max must be in [cw_min, 2**63], got {self.cw_max}")
        if not self.micro_slot_us >= 0:
            raise ConfigError("micro_slot_us must be non-negative")


# ScenarioConfig's vehicle and object records. Each compares and hashes equal
# to the plain tuple of its fields, so ((1, (x, y)), ...) works as well.
class Vehicle(NamedTuple):
    id: int
    pos: Position


class Obstacle(NamedTuple):
    pos: Position
    radius: float = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    grid: GridConfig = GridConfig()
    channel: ChannelConfig = ChannelConfig()
    sensing_range: float = 25.0
    slot_duration_ms: float = 2.0
    vehicles: Optional[tuple[Vehicle, ...]] = None
    placement: Optional[Placement] = None
    vehicle_radius: float = 1.0
    objects: tuple[Obstacle, ...] = ()
    initiators: Optional[tuple[int, ...]] = None
    max_slots: Optional[int] = None
    mac_mode: str = "l3"
    seed: int = 0
    csma: CsmaConfig = CsmaConfig()

    def __post_init__(self) -> None:
        if not self.slot_duration_ms > 0:
            raise ConfigError("slot_duration_ms must be positive")
        if not self.sensing_range > 0:
            raise ConfigError("sensing_range must be positive")
        if not self.vehicle_radius >= 0:
            raise ConfigError("vehicle_radius must be non-negative")
        if self.max_slots is not None and not _int(self.max_slots, "max_slots") > 0:
            raise ConfigError("max_slots must be positive")
        if self.mac_mode not in ("l3", "csma"):
            raise ConfigError(f"mac_mode must be 'l3' or 'csma', got {self.mac_mode!r}")
        if _int(self.seed, "seed") < 0:
            raise ConfigError("seed must be non-negative")
        if any(not radius > 0 for _, radius in self.objects):
            raise ConfigError("object radii must be positive")


@dataclass
class RunMetrics:
    converged: bool
    last_tx_slot: int
    quiescent_slot: int
    latency_ms: float
    tx_slots: dict[int, int]
    rx_slots: dict[int, int]
    final_matrix: SensingMatrix  # the first listed vehicle's, converged or not
    _trace: list[str] | Callable = field(default_factory=list, repr=False, compare=False)

    @property
    def trace(self) -> list[str]:
        """One line per slot (``round`` lines for CSMA), rendered on first read and kept."""
        if callable(self._trace):
            self._trace = list(self._trace())
        return self._trace

    def __eq__(self, other: object) -> bool:  # as generated, with trace a field
        if other.__class__ is not self.__class__:
            return NotImplemented
        return dict(vars(self), _trace=self.trace) == dict(vars(other), _trace=other.trace)


# Points drawn per placement attempt; a larger count can never be placed.
_DRAWS_PER_ATTEMPT = 20_000
# Candidate (x, y) pairs per rng call: 2 KB of doubles.
_DRAW_BLOCK = 128

# The largest least distance among n = 3..9 points in a unit square: the
# solved cases of spreading points in a square (Schaer, Meir, Graham; 1965).
# Two points spread to the diagonal, which _place_vehicles checks first.
_SPREAD = (
    math.sqrt(6) - math.sqrt(2), 1.0, math.sqrt(2) / 2, math.sqrt(13) / 6,
    4 - 2 * math.sqrt(3), (math.sqrt(6) - math.sqrt(2)) / 2, 0.5,
)


def _place_vehicles(cfg: ScenarioConfig) -> tuple[tuple[int, Position], ...]:
    p = cfg.placement
    assert p is not None
    if _int(p.count, "count") < 1:
        raise ConfigError("placement.count must be >= 1")
    if math.isnan(p.min_separation):
        raise ConfigError("placement.min_separation must be a number, got nan")
    if p.count > _DRAWS_PER_ATTEMPT:
        raise ConfigError(
            f"placement.count {p.count} exceeds {_DRAWS_PER_ATTEMPT}, the "
            "points one placement attempt draws"
        )
    if p.area is not None:
        x0, y0, x1, y1 = p.area
    else:
        (ox, oy), side = cfg.grid.origin, cfg.grid.blocks_per_side * cfg.grid.block_side
        x0, y0, x1, y1 = ox, oy, ox + side, oy + side
    if not (0 < x1 - x0 < math.inf and 0 < y1 - y0 < math.inf):
        raise ConfigError(f"degenerate or unbounded placement area {p.area!r}")
    s, reach = p.min_separation, cfg.channel.comm_range
    if p.count > 1:
        if p.connected and p.min_separation > cfg.channel.comm_range:
            raise ConfigError(
                "placement.min_separation exceeds comm_range; a connected "
                "layout is impossible"
            )
        if p.min_separation > math.hypot(x1 - x0, y1 - y0):
            raise ConfigError(
                f"placement.min_separation {p.min_separation} m exceeds the "
                f"diagonal of {(x0, y0, x1, y1)}; no two vehicles fit"
            )
        if 3 <= p.count <= len(_SPREAD) + 2:
            # The area fits in a square on its longer side. The slack keeps
            # float rounding from rejecting a layout at the optimum.
            spread = _SPREAD[p.count - 3] * max(x1 - x0, y1 - y0) * (1 + 1e-9)
            if s > spread:
                raise ConfigError(
                    f"placement.min_separation {s} m exceeds {spread:.6g} m, the "
                    f"most {p.count} vehicles in {(x0, y0, x1, y1)} can be spread"
                )
        if p.min_separation > 0:
            # Oler's inequality (Acta Math. 105, 1961): at most 2/sqrt(3)*A +
            # P/2 + 1 points pairwise >= 1 apart fit in a convex region of
            # area A and perimeter P. Dividing by s twice, not by s*s, which
            # underflows to 0. The bound is tight for a line of points along
            # a thin strip, where the slack keeps rounding from rejecting it.
            w, h = (x1 - x0) / s, (y1 - y0) / s
            capacity = (2 / math.sqrt(3) * w * h + w + h + 1) * (1 + 1e-9)
            if p.count > capacity:
                raise ConfigError(
                    f"cannot fit {p.count} vehicles {s} m apart in "
                    f"{(x0, y0, x1, y1)} (capacity bound {capacity:.0f})"
                )
    rng = np.random.default_rng([cfg.seed, 0x9E3779B9])
    # One stream of candidates, read in blocks and continued across attempts:
    # each row of lo + span * random() holds the doubles of the scalar pair
    # uniform(x0, x1), uniform(y0, y1), in the same order. iter(f, None)
    # calls f for ever; chaining in C beats a generator by 10-15% here.
    lo, span = np.array((x0, y0)), np.array((x1 - x0, y1 - y0))
    draws = itertools.chain.from_iterable(
        iter(lambda: (lo + span * rng.random((_DRAW_BLOCK, 2))).tolist(), None)
    )
    # A candidate's gap decides only up to this reach, and each point within it lies in
    # the candidate's 3 x 3 squares (grid._square), which ``near`` lists it in.
    square = _square_side(max(s, reach if p.connected else 0.0), p.count, ((x0, y0), (x1, y1)))
    one = square == math.inf
    for _ in range(200):
        # Take candidates one at a time; when a connected graph is requested
        # each new point must also land within comm range of one already
        # placed, which keeps the layout connected by construction.
        pts: list[tuple[float, float]] = []
        near: defaultdict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
        for x, y in itertools.islice(draws, _DRAWS_PER_ATTEMPT):
            if pts:
                close = pts if one else near.get(_square((x, y), square), ())
                gap = min(map(math.dist, itertools.repeat((x, y)), close)) if close else math.inf
                if gap < s or (p.connected and gap > reach):
                    continue
            pts.append((x, y))
            if len(pts) == p.count:
                return tuple((i + 1, pos) for i, pos in enumerate(pts))
            if not one:
                cx, cy = _square((x, y), square)
                for key in itertools.product((cx - 1, cx, cx + 1), (cy - 1, cy, cy + 1)):
                    near[key].append((x, y))
    raise ConfigError(
        f"could not place {p.count} vehicles (min separation "
        f"{p.min_separation} m, connected={p.connected}) in {(x0, y0, x1, y1)}"
    )


def build_world(
    cfg: ScenarioConfig,
) -> tuple[ZoneIndex, tuple[tuple[int, Position], ...], GroundTruth]:
    """Resolve vehicle positions and assemble the shared ground truth."""
    if (cfg.vehicles is None) == (cfg.placement is None):
        raise ConfigError("scenario needs exactly one of 'vehicles' or 'placement'")
    vehicles = cfg.vehicles if cfg.vehicles is not None else _place_vehicles(cfg)
    if not vehicles:
        raise ConfigError("scenario needs at least one vehicle")
    ids = [vid for vid, _ in vehicles]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate vehicle ids")
    seen: dict[tuple[float, ...], int] = {}
    for vid, pos in vehicles:
        other = seen.setdefault(tuple(pos), vid)
        if other != vid:
            raise ConfigError(f"vehicles {other} and {vid} share position {tuple(pos)}")
    try:
        zones = {locate_zone(pos, cfg.grid) for _, pos in vehicles}
        for pos, _ in cfg.objects:  # perception locates every object too
            locate_zone(pos, cfg.grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if len(zones) != 1:
        raise ConfigError(f"all vehicles must share one zone; got {sorted(zones)}")
    if cfg.initiators is not None:
        unknown = set(cfg.initiators) - set(ids)
        if unknown:
            raise ConfigError(f"initiators reference unknown vehicle ids {sorted(unknown)}")
    world = GroundTruth(
        objects=tuple(cfg.objects),
        vehicles=tuple((vid, pos, cfg.vehicle_radius) for vid, pos in vehicles),
    )
    return zones.pop(), vehicles, world


# A MAC is a generator function of the run's config, vehicles and link table.
# Per slot it yields the senders' packets by station k, in send order; the
# stations that heard something and the sender each decoded, or len(states)
# for a collision; and the latency so far. The MAC decides; _simulate delivers.
Slot = tuple[dict[int, Packet], list[int], list[int], float]
Mac = Callable[[ScenarioConfig, list[VehicleState], LinkTable], Iterator[Slot]]


def _simulate(cfg: ScenarioConfig, mac: Mac, word: str, every: bool) -> RunMetrics:
    """The slot loop both MACs share: it pulls the MAC's slots, applies their
    deliveries and records each one for the trace (_render). A slot is
    silent only when nobody is armed and then arms nobody, so the first one
    ends the run: converged if every matrix is identical, else stalled."""
    _, vehicles, world = build_world(cfg)
    states = [init_vehicle(vid, pos, world, cfg.grid, cfg.sensing_range) for vid, pos in vehicles]
    merges: Merges = {}  # one merge memo for the run's vehicles
    for s in states:
        s.merges = merges
    if cfg.initiators is not None:
        chosen = set(cfg.initiators)
        for s in states:
            s.pending_tx = s.id in chosen
    table = link_table(vehicles, cfg.channel)
    slots = mac(cfg, states, table)
    n = len(states)
    max_slots = cfg.max_slots or min(10 * n, MAX_SLOTS_CAP)
    code = "H" if n < 1 << 16 else "I"  # holds every station index and n
    record: list[bytes] = []
    converged = is_globally_converged(states)
    slot = last_tx = 0
    latency = 0.0
    while not converged and slot < max_slots:
        slot += 1
        sent, heard, got, latency = next(slots)
        for k, j in zip(heard, got):
            if j < n:
                on_delivery(states[k], sent[j])
        size = 1 + len(sent) + 2 * len(heard)
        record.append(pack(f"{size}{code}", len(sent), *sent, *heard, *got))
        if not sent:
            converged = is_globally_converged(states)
            break
        last_tx = slot
    return RunMetrics(
        converged=converged,
        last_tx_slot=last_tx,
        quiescent_slot=slot,
        latency_ms=latency,
        tx_slots={s.id: s.tx_slots for s in states},
        rx_slots={s.id: s.rx_slots for s in states},
        final_matrix=states[0].matrix.copy(),
        _trace=partial(_render, word, [s.id for s in states], every, code, record),
    )


def _render(
    word: str, ids: list[int], every: bool, code: str, record: list[bytes]
) -> Iterator[str]:
    """Trace lines headed ``word`` from a run's ``record``, which packs per
    slot, as ``code`` integers, a Slot's senders (count first), stations that
    heard something and what each decoded; station k has id ``ids[k]``. A
    line lists the senders, then every station by ascending id if ``every``
    is set, silence as ``S``, else the stations that heard something."""
    n, names = len(ids), [str(i) for i in ids]
    decoded, collided = [f"{i}:D" for i in names], [f"{i}:C" for i in names]
    order = sorted(range(n), key=ids.__getitem__)
    rank = {k: r for r, k in enumerate(order)}
    silent = [f"{names[k]}:S" for k in order]
    for slot, packed in enumerate(record, 1):
        rec = memoryview(packed).cast(code)
        cut = rec[0] + 1
        half = (cut + len(rec)) // 2
        heard, got = rec[cut:half], rec[half:]
        if every:
            entries = silent.copy()
            for k, j in zip(heard, got):
                entries[rank[k]] = decoded[k] + names[j] if j < n else collided[k]
        else:
            entries = [decoded[k] + names[j] if j < n else collided[k] for k, j in zip(heard, got)]
        senders = ",".join([names[k] for k in rec[1:cut]]) or "-"
        body = " ".join(entries) or ("-" if cut > 1 else "idle")
        yield f"{word} {slot} | tx {senders} | {body}"


def _slotted(cfg: ScenarioConfig, states: list[VehicleState], table: LinkTable) -> Iterator[Slot]:
    """Synchronized slots: every armed vehicle sends and resolve_slot decides
    what each station of the table hears. Latency is slot * slot_duration_ms."""
    n, index = len(states), table.index
    for slot in itertools.count(1):
        sent = {k: on_slot_begin(s) for k, s in enumerate(states) if s.pending_tx}
        outcomes = resolve_slot(list(sent.values()), table)
        heard = [(index[sid], o) for sid, o in outcomes.items() if o.kind != SILENCE]
        got = [index[o.packet.sender] if o.kind == DELIVERED else n for _, o in heard]
        yield sent, [k for k, _ in heard], got, slot * cfg.slot_duration_ms


def _backoffs(rng: np.random.Generator, cws: list[int]) -> list[int]:
    """One uniform draw in [0, cw) per window, all in one call: the same
    stream as one ``rng.integers(0, cw)`` per window. uint64 holds every
    window up to cw_max = 2**63 exactly; a plain list of them would convert
    to float64 once one exceeds int64."""
    return rng.integers(0, np.array(cws, dtype=np.uint64)).tolist()


def _csma(cfg: ScenarioConfig, states: list[VehicleState], table: LinkTable) -> Iterator[Slot]:
    """Contention rounds; see run_baseline. Station k is states[k], its
    neighbours table.links[k], linked both ways, and got[k] what it hears in
    the round, a sole sender or len(states) for a collision; a round lists,
    in states order, the marked stations whose got is set."""
    rng = np.random.default_rng([cfg.seed, 0x5DEECE66])
    n = len(states)
    cw = [cfg.csma.cw_min] * n
    micro_ms = cfg.csma.micro_slot_us / 1000.0
    elapsed = 0.0
    while True:
        armed = [k for k, s in enumerate(states) if s.pending_tx]
        # One draw per armed station, in states order; contend by (draw, id).
        draws = _backoffs(rng, [cw[k] for k in armed])
        order = sorted(zip(draws, [states[k].id for k in armed], armed))
        sent: dict[int, Packet] = {}
        marked: list[int] = []
        got: list[Optional[int]] = [None] * n
        for _, level in itertools.groupby(order, key=lambda o: o[0]):
            # Carrier sense: a contender that hears a sender of a lower draw
            # defers. The level marks its neighbours once all of it sensed.
            senders = [k for _, _, k in level if got[k] is None]
            for k in senders:
                sent[k] = on_slot_begin(states[k])
                marked += table.links[k]
                for r in table.links[k]:
                    got[r] = k if got[r] is None else n
            # A later contender in a sender's range deferred: only its level reaches it.
            for k in senders:
                collided = got[k] is not None
                cw[k] = min(cw[k] * 2, cfg.csma.cw_max) if collided else cfg.csma.cw_min
                states[k].pending_tx = collided  # retry after a collision
                got[k] = None  # half-duplex: a sender hears nothing
        heard = [k for k in sorted(set(marked)) if got[k] is not None]
        # The first sender's draw; a round with nobody armed lasts one slot.
        elapsed += cfg.slot_duration_ms + (order[0][0] * micro_ms if order else 0)
        yield sent, heard, [got[k] for k in heard], elapsed


def run(cfg: ScenarioConfig) -> RunMetrics:
    """Execute one scenario and return its metrics and slot trace.

    latency_ms is quiescent_slot * slot_duration_ms for the slotted MAC. With
    mac_mode='csma' this dispatches to run_baseline, whose latency also
    accumulates backoff time.
    """
    if cfg.mac_mode == "csma":
        return run_baseline(cfg)
    return _simulate(cfg, _slotted, "slot", every=True)


def run_baseline(cfg: ScenarioConfig) -> RunMetrics:
    """Same protocol over a contention MAC instead of synchronized slots.

    Every armed vehicle draws a uniform backoff in [0, CW) micro-slots and
    defers if its reception record shows a sender of a lower draw. Equal
    draws in range collide (no capture, no constructive interference) and
    double the collider's CW. A receiver decodes only a sole in-range
    sender. A round costs slot_duration_ms plus the winning backoff.
    """
    return _simulate(cfg, _csma, "round", every=False)


SWEEP_COLUMNS = [
    "count",
    "trial",
    "seed",
    "last_tx_slot",
    "quiescent_slot",
    "latency_ms",
    "converged",
]


def sweep(
    base: ScenarioConfig,
    counts: list[int],
    trials: int,
    seed: int,
) -> list[dict]:
    """Run ``trials`` random placements per vehicle count.

    Each trial derives its own sub-seed from the master seed, so the whole
    table is reproducible. Returns one row per run with the sweep.csv columns.
    """
    counts = [_int(c, "counts") for c in counts]
    trials, seed = _int(trials, "trials"), _int(seed, "seed")
    if not counts or any(c < 1 for c in counts):
        raise ConfigError("counts must be non-empty positive integers")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    # Sub-seeds pack count and trial into seed*1_000_000 + count*1_000 + trial,
    # which stays collision-free only while both fit in three digits.
    if trials > 1000:
        raise ConfigError("trials must be <= 1000")
    if any(c > 999 for c in counts):
        raise ConfigError("counts must be <= 999")
    rows = []
    for count in counts:
        for trial in range(trials):
            sub_seed = seed * 1_000_000 + count * 1_000 + trial
            placement = replace(
                base.placement if base.placement is not None else Placement(count),
                count=count,
            )
            cfg = replace(base, placement=placement, vehicles=None, seed=sub_seed)
            metrics = run(cfg)
            values = (
                count,
                trial,
                sub_seed,
                metrics.last_tx_slot,
                metrics.quiescent_slot,
                round(metrics.latency_ms, 6),
                metrics.converged,
            )
            rows.append(dict(zip(SWEEP_COLUMNS, values, strict=True)))
    return rows


def sweep_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
