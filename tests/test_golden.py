"""Golden outputs: digests of whole runs, pinned so that any change to the
channel, perception, protocol or MACs that alters a simulated result fails
here, not only in the benchmark.

A run digest covers the run's outcome, its tx/rx counters, every trace line
and the final matrix bytes. The pinned values were recorded before the per-run
link table and the per-world occupancy mask existed, so they also prove that
both left every result byte-identical. A perceive digest covers the matrix
every vehicle of a world perceives; those were recorded while occlusion still
looped over one occluder at a time.
"""

import hashlib
from dataclasses import replace

import pytest

from zonecast import (
    ChannelConfig,
    Placement,
    RunMetrics,
    ScenarioConfig,
    build_world,
    bundled_scenario,
    load_scenario,
    perceive,
    run,
)
from zonecast.presets import PRESETS

FIG9 = PRESETS["paper-fig9"].base

# (mac, vehicle count, seed) -> digest, on the paper-fig9 base. The l3 runs
# at N = 225 and 400, whose dense slots go to resolve_slot's array path,
# were recorded before that path existed, on the scalar loop alone.
FIG9_DIGESTS = {
    ("l3", 25, 0): "b5e1895a53a08172",
    ("l3", 25, 1): "abf8e8163d3a758f",
    ("l3", 25, 2): "346b2c361a6895de",
    ("l3", 100, 0): "9038206a4827169e",
    ("l3", 100, 1): "c0845ac8f940cd60",
    ("l3", 100, 2): "0d34fa300464af5d",
    ("l3", 225, 0): "0cc964704e3599fe",
    ("l3", 400, 0): "66fcbdf64445eeea",
    ("csma", 25, 0): "4ce498edb0700d21",
    ("csma", 25, 1): "4da70e1c92eca846",
    ("csma", 25, 2): "53a80eb20b238981",
    ("csma", 100, 0): "dd89bc9074f1d848",
    ("csma", 100, 1): "f719ff844821a39c",
    ("csma", 100, 2): "481520e879b70803",
}

# Vehicle 1 sits exactly 10 m from 2, 3, 4 and 5, and 6 is 10 m beyond 3.
# With a 0 dB capture margin, two equal-power frames give a margin of exactly
# 0 dB, so slot 1 delivers 2's frame to vehicle 1 by the lowest-id tie rule.
EQUIDISTANT = ScenarioConfig(
    channel=ChannelConfig(comm_range=20.0, capture_threshold=0.0, path_loss_exponent=3.0),
    vehicle_radius=0.0,
    vehicles=(
        (1, (50.0, 50.0)),
        (2, (40.0, 50.0)),
        (3, (60.0, 50.0)),
        (4, (50.0, 40.0)),
        (5, (50.0, 60.0)),
        (6, (70.0, 50.0)),
    ),
    initiators=(2, 3),
)
EQUIDISTANT_DIGESTS = {"l3": "bd7c3c51d26644c7", "csma": "5da05276a097acbc"}


def run_digest(m: RunMetrics) -> str:
    h = hashlib.sha256()
    head = (
        m.converged,
        m.last_tx_slot,
        m.quiescent_slot,
        m.latency_ms,
        sorted(m.tx_slots.items()),
        sorted(m.rx_slots.items()),
    )
    h.update(repr(head).encode())
    h.update("\n".join(m.trace).encode())
    h.update(m.final_matrix.cells.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("mac,count,seed", sorted(FIG9_DIGESTS))
def test_fig9_base_runs_match_golden_digests(mac, count, seed):
    cfg = replace(
        FIG9, placement=replace(FIG9.placement, count=count), seed=seed, mac_mode=mac
    )
    assert run_digest(run(cfg)) == FIG9_DIGESTS[(mac, count, seed)]


@pytest.mark.parametrize("mac", sorted(EQUIDISTANT_DIGESTS))
def test_equidistant_zero_margin_run_matches_golden_digest(mac):
    m = run(replace(EQUIDISTANT, mac_mode=mac))
    assert run_digest(m) == EQUIDISTANT_DIGESTS[mac]
    if mac == "l3":
        assert m.trace[0] == "slot 1 | tx 2,3 | 1:D2 2:S 3:S 4:D2 5:D2 6:D3"


LINE3 = load_scenario(bundled_scenario("fig5_line3"))

# Edge cases of the slot loop, each run under both MACs:
# - "shuffled": explicit vehicles listed out of id order. Slotted trace
#   entries stay sorted by receiver id, CSMA ones follow the list, and
#   final_matrix is the first listed vehicle's (vehicle 4; the l3 run stalls).
# - "capped": max_slots stops the run before it goes silent.
# - "alone": one vehicle with nothing uncertain is converged at slot 0.
# - "tenth": 0.1 ms slots; the slotted latency is quiescent_slot * 0.1
#   (0.6000000000000001 at slot 6), not a running sum (0.6).
EDGE_CASES = {
    "shuffled": ScenarioConfig(
        channel=ChannelConfig(comm_range=25.0, capture_threshold=0.0),
        sensing_range=20.0,
        vehicles=(
            (4, (82.5, 47.5)),
            (2, (47.5, 47.5)),
            (5, (62.5, 62.5)),
            (1, (32.5, 47.5)),
            (3, (62.5, 47.5)),
        ),
    ),
    "capped": replace(LINE3, max_slots=2),
    "alone": ScenarioConfig(vehicles=((1, (50.0, 50.0)),)),
    "tenth": replace(LINE3, slot_duration_ms=0.1),
}
EDGE_DIGESTS = {
    ("alone", "csma"): "7ec3973f89ca8492",
    ("alone", "l3"): "7ec3973f89ca8492",
    ("capped", "csma"): "7317bb94c3f73a69",
    ("capped", "l3"): "88105b8248bd39f8",
    ("shuffled", "csma"): "26ba05acd7dd12bf",
    ("shuffled", "l3"): "81429ead89e93c38",
    ("tenth", "csma"): "d128d60a9fe07793",
    ("tenth", "l3"): "a17271a75c006950",
}


@pytest.mark.parametrize("case,mac", sorted(EDGE_DIGESTS))
def test_slot_loop_edge_cases_match_golden_digests(case, mac):
    m = run(replace(EDGE_CASES[case], mac_mode=mac))
    assert run_digest(m) == EDGE_DIGESTS[(case, mac)]


# (vehicle count, seed) -> digest of every vehicle's perceived matrix, on the
# default config: radius-1 m vehicles that occlude each other, 25 m range.
PERCEIVE_DIGESTS = {
    (25, 0): "bb769940d628203a",
    (25, 1): "472f71affe64f6c5",
    (25, 2): "169d129bde0d292e",
    (100, 0): "6626114cc22fec6d",
    (100, 1): "82aaba04751b7995",
    (100, 2): "eac76ba8cff66271",
}

# Objects of radius 0.5, 1 and 2.5 among radius-1 m vehicles. Vehicle 1 at
# (50, 50) lies 1.12 m from the centre of the 2.5 m disc at (51, 50.5), so
# vehicle 1 sees past that disc.
OBJECTS_WORLD = ScenarioConfig(
    vehicles=(
        (1, (50.0, 50.0)),
        (2, (42.3, 57.9)),
        (3, (63.1, 44.2)),
        (4, (27.5, 31.0)),
        (5, (70.2, 72.8)),
        (6, (55.0, 20.5)),
        (7, (35.5, 48.25)),
        (8, (81.0, 52.0)),
    ),
    objects=(
        ((51.0, 50.5), 2.5),
        ((45.0, 45.0), 0.5),
        ((60.0, 60.0), 1.0),
        ((30.0, 40.0), 2.5),
        ((75.0, 50.0), 1.0),
    ),
    sensing_range=40.0,
)
OBJECTS_WORLD_DIGEST = "40dd48e44b7e8f1b"


def perceive_digest(cfg: ScenarioConfig) -> str:
    zone, vehicles, world = build_world(cfg)
    h = hashlib.sha256()
    for vid, pos in vehicles:
        mat = perceive(vid, pos, world, zone, cfg.grid, cfg.sensing_range)
        h.update(mat.cells.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("count,seed", sorted(PERCEIVE_DIGESTS))
def test_every_perceived_matrix_matches_golden_digest(count, seed):
    cfg = ScenarioConfig(placement=Placement(count), seed=seed)
    assert perceive_digest(cfg) == PERCEIVE_DIGESTS[(count, seed)]


def test_objects_world_perceived_matrices_match_golden_digest():
    assert perceive_digest(OBJECTS_WORLD) == OBJECTS_WORLD_DIGEST
