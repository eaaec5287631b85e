"""Slotted simulation engine for one zone: scenario construction, the
deterministic slot loop, a contention-MAC baseline, and seeded sweeps.

A run is a sequence of barrier-phased slots: collect every armed vehicle's
transmission, resolve the slot on the channel, apply deliveries. It ends at
the quiescent slot — the first silent slot in which all matrices are
identical — or at the max_slots safety cap (converged=False; a capture-less
collision can legitimately stall the exchange).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .channel import (
    COLLISION,
    DELIVERED,
    ChannelConfig,
    Outcome,
    Transmission,
    link_table,
    resolve_slot,
)
from .grid import GridConfig, Position, ZoneIndex, locate_zone, zone_origin
from .protocol import (
    VehicleState,
    init_vehicle,
    is_globally_converged,
    on_delivery,
    on_slot_begin,
)
from .sensing import GroundTruth, SensingMatrix

MAX_SLOTS_CAP = 10_000


class ConfigError(ValueError):
    """Scenario configuration is invalid or inconsistent."""


@dataclass(frozen=True)
class Placement:
    """Random vehicle placement: uniform in ``area`` (defaults to the zone at
    the grid origin), positions at least min_separation apart, resampled until
    the comm graph is connected when ``connected`` is set."""

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
        if self.cw_min < 1:
            raise ConfigError("cw_min must be >= 1")
        if not self.cw_min <= self.cw_max <= 2**63:  # backoffs are drawn as int64
            raise ConfigError(f"cw_max must be in [cw_min, 2**63], got {self.cw_max}")
        if self.micro_slot_us < 0:
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
        if self.slot_duration_ms <= 0:
            raise ConfigError("slot_duration_ms must be positive")
        if self.sensing_range <= 0:
            raise ConfigError("sensing_range must be positive")
        if self.vehicle_radius < 0:
            raise ConfigError("vehicle_radius must be non-negative")
        if self.max_slots is not None and self.max_slots <= 0:
            raise ConfigError("max_slots must be positive")
        if self.mac_mode not in ("l3", "csma"):
            raise ConfigError(f"mac_mode must be 'l3' or 'csma', got {self.mac_mode!r}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if any(radius <= 0 for _, radius in self.objects):
            raise ConfigError("object radii must be positive")


@dataclass
class RunMetrics:
    converged: bool
    last_tx_slot: int
    quiescent_slot: int
    latency_ms: float
    tx_slots: dict[int, int]
    rx_slots: dict[int, int]
    final_matrix: SensingMatrix
    trace: list[str] = field(default_factory=list)


def _is_connected(points: np.ndarray, comm_range: float) -> bool:
    n = len(points)
    if n <= 1:
        return True
    dx = points[:, 0][:, None] - points[:, 0][None, :]
    dy = points[:, 1][:, None] - points[:, 1][None, :]
    adjacent = np.hypot(dx, dy) <= comm_range
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(adjacent[i] & ~seen)[0]:
            seen[j] = True
            stack.append(j)
    return bool(seen.all())


# Points drawn per placement attempt; a larger count can never be placed.
_DRAWS_PER_ATTEMPT = 20_000


def _place_vehicles(cfg: ScenarioConfig) -> tuple[tuple[int, Position], ...]:
    p = cfg.placement
    assert p is not None
    if p.count < 1:
        raise ConfigError("placement.count must be >= 1")
    if p.count > _DRAWS_PER_ATTEMPT:
        raise ConfigError(
            f"placement.count {p.count} exceeds {_DRAWS_PER_ATTEMPT}, the "
            "points one placement attempt draws"
        )
    if p.area is not None:
        x0, y0, x1, y1 = p.area
    else:
        ox, oy = cfg.grid.origin
        x0, y0, x1, y1 = ox, oy, ox + cfg.grid.zone_side, oy + cfg.grid.zone_side
    if x1 <= x0 or y1 <= y0:
        raise ConfigError(f"degenerate placement area {p.area!r}")
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
        if p.min_separation > 0:
            # Disc-packing bound: points pairwise >= s apart carry disjoint
            # discs of radius s/2 inside the area grown by s on each side.
            # Dividing by s twice, not by s*s, which underflows to 0.
            capacity = (x1 - x0 + s) / s * (y1 - y0 + s) / s * 4 / math.pi
            if p.count > capacity:
                raise ConfigError(
                    f"cannot fit {p.count} vehicles {s} m apart in "
                    f"{(x0, y0, x1, y1)} (capacity bound {capacity:.0f})"
                )
    rng = np.random.default_rng([cfg.seed, 0x9E3779B9])
    for _ in range(200):
        # Draw points one at a time; when a connected graph is requested each
        # new point must also land within comm range of one already placed,
        # which keeps the layout connected by construction.
        pts: list[tuple[float, float]] = []
        tries = 0
        while len(pts) < p.count and tries < _DRAWS_PER_ATTEMPT:
            tries += 1
            x = float(rng.uniform(x0, x1))
            y = float(rng.uniform(y0, y1))
            if pts:
                gap = min(map(math.dist, itertools.repeat((x, y)), pts))
                if gap < s or (p.connected and gap > reach):
                    continue
            pts.append((x, y))
        if len(pts) < p.count:
            continue
        if p.connected and not _is_connected(np.array(pts), cfg.channel.comm_range):
            continue
        return tuple((i + 1, pos) for i, pos in enumerate(pts))
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
    zones = {locate_zone(pos, cfg.grid) for _, pos in vehicles}
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


def _init_states(cfg: ScenarioConfig) -> list[VehicleState]:
    _, vehicles, world = build_world(cfg)
    states = [
        init_vehicle(vid, pos, world, cfg.grid, cfg.sensing_range)
        for vid, pos in vehicles
    ]
    if cfg.initiators is not None:
        chosen = set(cfg.initiators)
        for s in states:
            s.pending_tx = s.id in chosen
    return states


def _default_max_slots(cfg: ScenarioConfig, count: int) -> int:
    if cfg.max_slots is not None:
        return cfg.max_slots
    return min(10 * count, MAX_SLOTS_CAP)


def _slot_line(slot: int, txs: list[Transmission], outcomes: dict[int, Outcome]) -> str:
    senders = ",".join(str(t.sender) for t in txs) or "-"
    parts = []
    for rid in sorted(outcomes):
        o = outcomes[rid]
        if o.kind == DELIVERED:
            parts.append(f"{rid}:D{o.packet.sender}")
        elif o.kind == COLLISION:
            parts.append(f"{rid}:C")
        else:
            parts.append(f"{rid}:S")
    return f"slot {slot} | tx {senders} | {' '.join(parts)}"


def _metrics(
    states: list[VehicleState],
    converged: bool,
    last_tx: int,
    quiescent: int,
    latency_ms: float,
    trace: list[str],
) -> RunMetrics:
    return RunMetrics(
        converged=converged,
        last_tx_slot=last_tx,
        quiescent_slot=quiescent,
        latency_ms=latency_ms,
        tx_slots={s.id: s.tx_slots for s in states},
        rx_slots={s.id: s.rx_slots for s in states},
        final_matrix=states[0].matrix.copy(),
        trace=trace,
    )


def run(cfg: ScenarioConfig) -> RunMetrics:
    """Execute one scenario and return its metrics and slot trace.

    latency_ms is quiescent_slot * slot_duration_ms for the slotted MAC. With
    mac_mode='csma' this dispatches to run_baseline, whose latency also
    accumulates backoff time.
    """
    if cfg.mac_mode == "csma":
        return run_baseline(cfg)
    states = _init_states(cfg)
    max_slots = _default_max_slots(cfg, len(states))
    receivers = [(s.id, s.position) for s in states]
    table = link_table(receivers, receivers, cfg.channel)
    trace: list[str] = []
    last_tx = 0
    converged = is_globally_converged(states, last_slot_had_tx=False)
    quiescent = 0
    if not converged:
        for slot in range(1, max_slots + 1):
            txs = []
            for s in states:
                t = on_slot_begin(s)
                if t is not None:
                    txs.append(t)
            outcomes = resolve_slot(txs, receivers, cfg.channel, table)
            for s in states:
                o = outcomes[s.id]
                if o.kind == DELIVERED:
                    on_delivery(s, o.packet)
            if txs:
                last_tx = slot
            trace.append(_slot_line(slot, txs, outcomes))
            quiescent = slot
            if is_globally_converged(states, last_slot_had_tx=bool(txs)):
                converged = True
                break
            if not txs and not any(s.pending_tx for s in states):
                break  # silent but unequal: provably stalled
    return _metrics(
        states, converged, last_tx, quiescent, quiescent * cfg.slot_duration_ms, trace
    )


def run_baseline(cfg: ScenarioConfig) -> RunMetrics:
    """Same protocol over a contention MAC instead of synchronized slots.

    Every armed vehicle draws a uniform backoff in [0, CW) micro-slots;
    carrier sense defers to an earlier in-range transmitter, equal draws
    within range collide (no capture, no constructive interference) and
    double the collider's CW. A receiver decodes only a sole in-range
    transmitter. Each round costs slot_duration_ms plus the winning backoff.
    """
    states = _init_states(cfg)
    max_rounds = _default_max_slots(cfg, len(states))
    rng = np.random.default_rng([cfg.seed, 0x5DEECE66])
    cw = {s.id: cfg.csma.cw_min for s in states}
    micro_ms = cfg.csma.micro_slot_us / 1000.0
    stations = [(s.id, s.position) for s in states]
    table = link_table(stations, stations, cfg.channel)  # row/column k: states[k]
    row = table.rows
    near = table.in_range.tolist()  # the same mask, for fast scalar lookups
    trace: list[str] = []
    elapsed = 0.0
    last_tx = 0
    converged = is_globally_converged(states, last_slot_had_tx=False)
    quiescent = 0
    if not converged:
        for rnd in range(1, max_rounds + 1):
            contenders = [s for s in states if s.pending_tx]
            quiescent = rnd
            if not contenders:
                elapsed += cfg.slot_duration_ms
                trace.append(f"round {rnd} | tx - | idle")
                if is_globally_converged(states, last_slot_had_tx=False):
                    converged = True
                break  # silent round: either converged or provably stalled
            draws = {s.id: int(rng.integers(0, cw[s.id])) for s in contenders}
            order = sorted(contenders, key=lambda s: (draws[s.id], s.id))
            transmitters: list[VehicleState] = []
            for s in order:
                blocked = any(
                    draws[t.id] < draws[s.id] and near[row[s.id]][row[t.id]]
                    for t in transmitters
                )
                if not blocked:
                    transmitters.append(s)
            txs = [on_slot_begin(s) for s in transmitters]
            tx_ids = {s.id for s in transmitters}
            # Per station, the transmitters in range (a station is never in
            # its own range) and the first of them.
            hears = table.in_range[:, [row[s.id] for s in transmitters]]
            heard = hears.sum(axis=1).tolist()
            first = hears.argmax(axis=1).tolist()
            for s in transmitters:
                if heard[row[s.id]]:  # another transmitter in range: a collision
                    cw[s.id] = min(cw[s.id] * 2, cfg.csma.cw_max)
                    s.pending_tx = True  # retry after the collision
                else:
                    cw[s.id] = cfg.csma.cw_min
            delivered_to = []
            for s, n, k in zip(states, heard, first):
                if s.id in tx_ids:
                    continue
                if n == 1:
                    on_delivery(s, txs[k].packet)
                    delivered_to.append(f"{s.id}:D{txs[k].sender}")
                elif n > 1:
                    delivered_to.append(f"{s.id}:C")
            last_tx = rnd
            elapsed += cfg.slot_duration_ms + min(draws[s.id] for s in transmitters) * micro_ms
            trace.append(
                f"round {rnd} | tx {','.join(str(s.id) for s in transmitters)} | "
                + (" ".join(delivered_to) or "-")
            )
    return _metrics(states, converged, last_tx, quiescent, elapsed, trace)


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
            rows.append(
                {
                    "count": count,
                    "trial": trial,
                    "seed": sub_seed,
                    "last_tx_slot": metrics.last_tx_slot,
                    "quiescent_slot": metrics.quiescent_slot,
                    "latency_ms": round(metrics.latency_ms, 6),
                    "converged": metrics.converged,
                }
            )
    return rows


SWEEP_COLUMNS = [
    "count",
    "trial",
    "seed",
    "last_tx_slot",
    "quiescent_slot",
    "latency_ms",
    "converged",
]


def sweep_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
