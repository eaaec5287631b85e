"""Tests for the slotted simulation engine: traces, metrics, placement,
and seeded sweeps."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from zonecast import (
    BlockState,
    ChannelConfig,
    ConfigError,
    CsmaConfig,
    GridConfig,
    Placement,
    RunMetrics,
    ScenarioConfig,
    build_world,
    bundled_scenario,
    channel,
    engine,
    grid,
    load_scenario,
    perceive,
    run,
    sensing,
    sweep,
    sweep_csv,
)
from zonecast.engine import SWEEP_COLUMNS
from zonecast.presets import PRESETS

LINE3 = bundled_scenario("fig5_line3")


# ---------------------------------------------------------------------------
# Reference runs with frozen traces


def test_line3_trace_and_metrics():
    m = run(load_scenario(LINE3))
    assert m.trace == [
        "slot 1 | tx 1 | 1:S 2:D1 3:D1",
        "slot 2 | tx 2,3 | 1:D2 2:S 3:S",
        "slot 3 | tx 1 | 1:S 2:D1 3:D1",
        "slot 4 | tx 3 | 1:D3 2:D3 3:S",
        "slot 5 | tx 1,2 | 1:S 2:S 3:D2",
        "slot 6 | tx - | 1:S 2:S 3:S",
    ]
    assert m.converged
    assert m.last_tx_slot == 5
    assert m.quiescent_slot == 6
    assert m.latency_ms == 12.0
    assert m.tx_slots == {1: 3, 2: 2, 3: 2}
    assert m.rx_slots == {1: 2, 2: 3, 3: 3}


def test_line3_slot2_is_constructive_interference():
    # Vehicles 2 and 3 answer simultaneously with identical bytes; vehicle 1
    # still decodes (2:S/3:S are the half-duplex senders).
    m = run(load_scenario(LINE3))
    assert m.trace[1] == "slot 2 | tx 2,3 | 1:D2 2:S 3:S"


def test_stalled_chain_regression():
    # A three-vehicle chain where the middle vehicle captures a stale frame
    # from its near neighbour instead of the far vehicle's informative one.
    # The sender never re-sends (its matrix no longer changes), so the run
    # goes silent with unequal matrices and must be reported as stalled.
    cfg = ScenarioConfig(
        channel=ChannelConfig(comm_range=20.0, capture_threshold=0.0, path_loss_exponent=2.0),
        vehicle_radius=0.0,
        vehicles=((1, (25.8, 38.2)), (2, (10.4, 38.5)), (3, (1.0, 54.5))),
        initiators=(1,),
    )
    m = run(cfg)
    assert not m.converged
    assert m.trace == [
        "slot 1 | tx 1 | 1:S 2:D1 3:S",
        "slot 2 | tx 2 | 1:D2 2:S 3:D2",
        "slot 3 | tx 1,3 | 1:S 2:D1 3:S",
        "slot 4 | tx - | 1:S 2:S 3:S",
    ]
    assert m.last_tx_slot == 3
    assert m.quiescent_slot == 4
    assert m.latency_ms == 8.0


def test_two_vehicle_exchange():
    cfg = ScenarioConfig(
        vehicle_radius=0.0,
        vehicles=((1, (40.0, 50.0)), (2, (55.0, 50.0))),
        initiators=(1,),
    )
    m = run(cfg)
    assert m.converged
    assert m.quiescent_slot == 4
    assert m.latency_ms == 8.0
    assert m.tx_slots == {1: 2, 2: 1}
    assert m.rx_slots == {1: 1, 2: 2}


def test_single_vehicle_is_converged_at_slot_zero():
    cfg = ScenarioConfig(vehicles=((1, (50.0, 50.0)),), vehicle_radius=0.0)
    m = run(cfg)
    assert m.converged
    assert m.quiescent_slot == 0
    assert m.last_tx_slot == 0
    assert m.latency_ms == 0.0
    assert m.trace == []


def test_no_initiators_means_instant_convergence_when_views_align():
    # Point vehicles with full-zone sensing hold identical matrices from the
    # start, so nothing is pending and no slot runs.
    cfg = ScenarioConfig(
        vehicles=((1, (40.0, 50.0)), (2, (55.0, 50.0))),
        vehicle_radius=0.0,
        sensing_range=200.0,
    )
    m = run(cfg)
    assert m.converged
    assert m.quiescent_slot == 0
    assert m.trace == []


def test_traces_name_ids_in_any_order_of_any_sign_and_size():
    # Stations listed out of id order, with a negative id and one past 64
    # bits: l3 lines list every vehicle by ascending id, CSMA lines only
    # those that heard something, in listed order.
    b = 2**70
    cfg = ScenarioConfig(
        vehicles=((3, (40.0, 50.0)), (-5, (55.0, 50.0)), (b, (70.0, 50.0))),
        vehicle_radius=0.0,
        initiators=(3,),
    )
    assert run(cfg).trace == [
        f"slot 1 | tx 3 | -5:D3 3:S {b}:D3",
        f"slot 2 | tx -5,{b} | -5:S 3:D-5 {b}:S",
        f"slot 3 | tx 3 | -5:D3 3:S {b}:D3",
        f"slot 4 | tx {b} | -5:D{b} 3:D{b} {b}:S",
        f"slot 5 | tx 3,-5 | -5:S 3:S {b}:D-5",
        f"slot 6 | tx - | -5:S 3:S {b}:S",
    ]
    assert run(replace(cfg, mac_mode="csma")).trace == [
        f"round 1 | tx 3 | -5:D3 {b}:D3",
        f"round 2 | tx {b} | 3:D{b} -5:D{b}",
        f"round 3 | tx 3 | -5:D3 {b}:D3",
        f"round 4 | tx -5 | 3:D-5 {b}:D-5",
        f"round 5 | tx 3 | -5:D3 {b}:D3",
        f"round 6 | tx {b} | 3:D{b} -5:D{b}",
        "round 7 | tx - | idle",
    ]


def test_trace_is_rendered_once_and_kept():
    m = run(load_scenario(LINE3))
    assert m.trace is m.trace
    m.trace.append("slot 7 | tx - | 1:S 2:S 3:S")
    assert m.trace[-1] == "slot 7 | tx - | 1:S 2:S 3:S"
    # Equality still covers the trace, read or not.
    again, other = run(load_scenario(LINE3)), run(load_scenario(LINE3))
    assert again == other
    assert m != other
    m.trace.pop()
    assert m == other
    assert "trace" not in repr(other) and "partial" not in repr(other)


# ---------------------------------------------------------------------------
# Metric invariants


def _trace_deliveries(trace: list[str]) -> dict[int, int]:
    got: dict[int, int] = {}
    for line in trace:
        for rid, _ in re.findall(r"(\d+):D(\d+)", line.split("|")[2]):
            got[int(rid)] = got.get(int(rid), 0) + 1
    return got


def _trace_tx_counts(trace: list[str]) -> dict[int, int]:
    sent: dict[int, int] = {}
    for line in trace:
        field = line.split("|")[1].strip()  # "tx 1,2" or "tx -"
        ids = field[3:]
        if ids != "-":
            for tok in ids.split(","):
                sent[int(tok)] = sent.get(int(tok), 0) + 1
    return sent


@pytest.mark.parametrize("mac", ["l3", "csma"])
def test_accounting_matches_trace(mac):
    cfg = ScenarioConfig(
        channel=ChannelConfig(comm_range=30.0),
        vehicle_radius=0.0,
        placement=Placement(count=6),
        initiators=(1,),
        seed=5,
        mac_mode=mac,
    )
    m = run(cfg)
    assert _trace_tx_counts(m.trace) == {k: v for k, v in m.tx_slots.items() if v}
    assert _trace_deliveries(m.trace) == {k: v for k, v in m.rx_slots.items() if v}
    assert m.last_tx_slot <= m.quiescent_slot
    if mac == "l3":
        assert m.latency_ms == pytest.approx(m.quiescent_slot * cfg.slot_duration_ms)
    else:  # each round also waits out its first sender's backoff
        assert m.latency_ms >= m.quiescent_slot * cfg.slot_duration_ms


def test_latency_scales_with_slot_duration():
    base = dict(
        vehicle_radius=0.0,
        vehicles=((1, (40.0, 50.0)), (2, (55.0, 50.0))),
        initiators=(1,),
    )
    fast = run(ScenarioConfig(slot_duration_ms=0.5, **base))
    slow = run(ScenarioConfig(slot_duration_ms=8.0, **base))
    assert fast.quiescent_slot == slow.quiescent_slot
    assert fast.latency_ms == fast.quiescent_slot * 0.5
    assert slow.latency_ms == slow.quiescent_slot * 8.0


def test_max_slots_truncates_run():
    cfg = ScenarioConfig(
        vehicle_radius=0.0,
        vehicles=((1, (40.0, 50.0)), (2, (55.0, 50.0))),
        initiators=(1,),
        max_slots=2,
    )
    m = run(cfg)
    assert not m.converged
    assert len(m.trace) == 2
    assert m.quiescent_slot == 2


def test_final_matrix_is_a_copy_of_no_state(monkeypatch):
    # The run's merge memo hands one merge to many vehicles. A write into a
    # state's matrix, or into the reported one, must reach no state's bytes.
    states, init = [], engine.init_vehicle

    def kept(*args):
        states.append(init(*args))
        return states[-1]

    fig9 = PRESETS["paper-fig9"].base
    cfg = replace(fig9, placement=replace(fig9.placement, count=40))
    with monkeypatch.context() as patch:
        patch.setattr(engine, "init_vehicle", kept)
        m = run(cfg)
    assert len(states) == 40
    payloads = [s.payload for s in states]
    states[0].matrix.cells[0, 0] ^= 1
    assert [s.payload for s in states] == [sensing.encode(s.matrix) for s in states] == payloads

    def digest(r):
        return r.trace, r.tx_slots, r.rx_slots, r.final_matrix.cells.tobytes()

    before = digest(m)
    m.final_matrix.cells[...] = 0
    assert [s.payload for s in states] == payloads
    assert digest(run(cfg)) == before


FIG9 = PRESETS["paper-fig9"].base
WHOLE_RUNS = {
    "fig9-l3-40": replace(FIG9, placement=replace(FIG9.placement, count=40)),
    "fig9-csma-40": replace(FIG9, placement=replace(FIG9.placement, count=40), mac_mode="csma"),
    "fig5_line3": load_scenario(LINE3),
}


class NoUnpack:
    def take(self, *args, **kwargs):
        raise AssertionError("a run unpacked a matrix's bytes into cells")


@pytest.mark.parametrize("name", sorted(WHOLE_RUNS))
def test_a_run_packs_each_perceived_matrix_once_and_unpacks_nothing(monkeypatch, name):
    # Perception hands out wire bytes, so neither set-up nor a vehicle's
    # first merge packs its cells a second time.
    cfg = WHOLE_RUNS[name]
    packs, pack = [], sensing._pack

    def counted(cells):
        packs.append(cells.size)
        return pack(cells)

    with monkeypatch.context() as patch:
        patch.setattr(sensing, "_pack", counted)
        patch.setattr(sensing, "_UNPACK", NoUnpack())
        run(cfg)
    assert len(packs) == len(build_world(cfg)[1])


def count_received_power(monkeypatch):
    calls, power = [], channel.received_power

    def counted(*args):
        calls.append(args)
        return power(*args)

    monkeypatch.setattr(channel, "received_power", counted)
    return calls


def test_the_default_scenario_builds_no_link_table(monkeypatch):
    # Every vehicle sends in slot 1 and nobody listens, so no slot reads the
    # table's links.
    calls = count_received_power(monkeypatch)
    m = run(ScenarioConfig(placement=Placement(100), seed=42000))
    assert m.quiescent_slot == 2 and set(m.tx_slots.values()) == {1}
    assert calls == []


def test_a_run_with_listeners_builds_its_link_table_once(monkeypatch):
    calls = count_received_power(monkeypatch)
    cfg = WHOLE_RUNS["fig9-l3-40"]
    m = run(cfg)
    assert m.last_tx_slot > 1
    _, vehicles, _ = build_world(cfg)
    pairs = sum(
        math.dist(p, q) <= cfg.channel.comm_range
        for (_, p), (_, q) in itertools.combinations(vehicles, 2)
    )
    assert len(calls) == pairs > 0


def test_run_is_deterministic():
    cfg = ScenarioConfig(
        channel=ChannelConfig(comm_range=30.0),
        vehicle_radius=0.0,
        placement=Placement(count=5),
        initiators=(1,),
        seed=9,
    )
    a, b = run(cfg), run(cfg)
    assert a.trace == b.trace
    assert a.latency_ms == b.latency_ms
    assert a.tx_slots == b.tx_slots
    assert np.array_equal(a.final_matrix.cells, b.final_matrix.cells)


# ---------------------------------------------------------------------------
# build_world validation


def test_world_requires_exactly_one_vehicle_source():
    with pytest.raises(ConfigError):
        build_world(ScenarioConfig())  # neither vehicles nor placement
    with pytest.raises(ConfigError):
        build_world(
            ScenarioConfig(vehicles=((1, (5.0, 5.0)),), placement=Placement(count=2))
        )


def test_world_rejects_duplicate_ids():
    with pytest.raises(ConfigError, match="duplicate"):
        build_world(ScenarioConfig(vehicles=((1, (5.0, 5.0)), (1, (9.0, 5.0)))))


def test_world_rejects_colocated_vehicles():
    with pytest.raises(ConfigError, match="vehicles 1 and 3 share position"):
        build_world(
            ScenarioConfig(vehicles=((1, (5.0, 5.0)), (2, (9.0, 5.0)), (3, (5.0, 5.0))))
        )
    # A one-ulp-wide area holds four distinct points, so five placed vehicles
    # without a minimum separation must share one.
    tiny = math.nextafter(1.0, 2.0)
    placement = Placement(
        count=5, area=(1.0, 1.0, tiny, tiny), min_separation=0.0, connected=False
    )
    with pytest.raises(ConfigError, match="share position"):
        build_world(ScenarioConfig(placement=placement))
    with pytest.raises(ConfigError, match="share position"):
        run(ScenarioConfig(placement=placement, mac_mode="csma"))


def test_world_rejects_vehicles_spanning_zones():
    with pytest.raises(ConfigError, match="zone"):
        build_world(ScenarioConfig(vehicles=((1, (50.0, 50.0)), (2, (150.0, 50.0)))))


def test_world_rejects_unknown_initiators():
    with pytest.raises(ConfigError, match="initiators"):
        build_world(
            ScenarioConfig(vehicles=((1, (50.0, 50.0)),), initiators=(1, 7))
        )


def test_world_ground_truth_carries_radius_and_objects():
    cfg = ScenarioConfig(
        vehicles=((1, (50.0, 50.0)),),
        vehicle_radius=1.5,
        objects=(((20.0, 20.0), 2.0),),
    )
    zone, vehicles, world = build_world(cfg)
    assert tuple(zone) == (0, 0)
    assert vehicles == ((1, (50.0, 50.0)),)
    assert world.vehicles == ((1, (50.0, 50.0), 1.5),)
    assert world.objects == (((20.0, 20.0), 2.0),)


def test_config_bounds_are_config_errors():
    with pytest.raises(ConfigError, match="cw_min"):
        CsmaConfig(cw_min=0)
    with pytest.raises(ConfigError, match="cw_max"):
        CsmaConfig(cw_min=8, cw_max=4)
    with pytest.raises(ConfigError, match="cw_max"):
        CsmaConfig(cw_max=2**63 + 1)
    with pytest.raises(ConfigError, match="micro_slot_us"):
        CsmaConfig(micro_slot_us=-1.0)
    assert CsmaConfig(cw_min=1, cw_max=1, micro_slot_us=0.0).cw_max == 1
    with pytest.raises(ConfigError, match="seed"):
        ScenarioConfig(seed=-1)
    with pytest.raises(ConfigError, match="radii"):
        ScenarioConfig(objects=(((20.0, 20.0), 0.0),))


def test_grid_and_channel_bounds_are_config_errors():
    assert ConfigError is grid.ConfigError is channel.ConfigError is engine.ConfigError
    with pytest.raises(ConfigError, match="zone_side and block_side must be positive"):
        GridConfig(zone_side=-5)
    with pytest.raises(ConfigError, match="integer multiple"):
        GridConfig(zone_side=100.0, block_side=7.0)
    with pytest.raises(ConfigError, match="comm_range must be positive"):
        ChannelConfig(comm_range=0)
    with pytest.raises(ConfigError, match="path_loss_exponent"):
        ChannelConfig(path_loss_exponent=math.inf)


def _placed(**placement):
    return build_world(ScenarioConfig(placement=Placement(**placement)))


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: ScenarioConfig(slot_duration_ms=math.nan), "slot_duration_ms"),
        (lambda: ScenarioConfig(slot_duration_ms=math.inf), "slot_duration_ms"),
        (lambda: ScenarioConfig(sensing_range=math.nan), "sensing_range"),
        (lambda: ScenarioConfig(vehicle_radius=math.nan), "vehicle_radius"),
        (lambda: ScenarioConfig(max_slots=math.nan), "max_slots"),
        (lambda: ScenarioConfig(objects=(((20.0, 20.0), math.nan),)), "radii"),
        (lambda: CsmaConfig(micro_slot_us=math.nan), "micro_slot_us"),
        (lambda: CsmaConfig(micro_slot_us=math.inf), "micro_slot_us"),
        (lambda: _placed(count=5, min_separation=math.nan), "min_separation"),
        (lambda: _placed(count=2, area=(0.0, 0.0, math.nan, 10.0)), "area"),
        (lambda: _placed(count=2, area=(0.0, 0.0, math.inf, 10.0)), "area"),
        (lambda: _placed(count=2, area=(0.0, -math.inf, 10.0, 10.0)), "area"),
    ],
    ids=[
        "slot_duration_ms", "inf_slot_duration_ms", "sensing_range", "vehicle_radius",
        "max_slots", "object_radius", "micro_slot_us", "inf_micro_slot_us", "min_separation",
        "nan_area", "inf_area", "minus_inf_area",
    ],
)
def test_non_finite_bounds_are_config_errors(make, match):
    # A NaN passes every `x <= 0` test, and numpy's uniform draw raises
    # OverflowError on a non-finite area; both must be ConfigErrors.
    with pytest.raises(ConfigError, match=match):
        make()


def _at(pos=(10.0, 10.0), obj=(20.0, 10.0), origin=(0.0, 0.0)):
    return ScenarioConfig(
        grid=GridConfig(origin=origin), vehicles=((1, pos),), objects=((obj, 1.0),)
    )


def _placed_in(origin):
    return ScenarioConfig(grid=GridConfig(origin=origin), placement=Placement(3))


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: _at(origin=[0.0, 0.0]), "origin"),
        (lambda: _at(origin=np.array([0.0, 0.0])), "origin"),
        (lambda: _at(origin=(0.0,)), "origin"),
        (lambda: _at(origin=(0.0, 0.0, 5.0)), "origin"),
        (lambda: _at(pos=(10.0,)), "position"),
        (lambda: _at(obj=(20.0,)), "position"),
        (lambda: _at(pos=(10.0, 10.0, 3.0)), "position"),
        (lambda: _at(pos="ab"), "position"),
        (lambda: _at(pos=(10**400, 10.0)), "non-finite"),
        (lambda: ScenarioConfig(placement=Placement(3, area=(0.0, 0.0, 10.0))), "area"),
        (lambda: ScenarioConfig(placement=Placement(3, area=(0, 0, 10**400, 10))), "area"),
        (lambda: _placed_in(origin=(10**400, 0.0)), "origin"),
        (lambda: _placed_in(origin=(math.nan, 0.0)), "origin"),
        (lambda: _at(pos=(1.0, 1.0), origin=(math.inf, 0.0)), "origin"),
    ],
    ids=[
        "origin_list", "origin_array", "origin_of_one", "origin_of_three", "vehicle_of_one",
        "object_of_one", "vehicle_of_three", "vehicle_string", "vehicle_beyond_float",
        "area_of_three", "area_beyond_float", "origin_beyond_float", "nan_origin",
        "inf_origin",
    ],
)
def test_malformed_positions_built_in_code_are_config_errors(make, match):
    # Each once ended deeper in the run: an unhashable cache key, an
    # IndexError, a numpy ValueError, a TypeError, an OverflowError, a
    # third origin value silently ignored, or an error naming the placement
    # area or a vehicle's position for a non-finite origin.
    with pytest.raises(ConfigError, match=match):
        run(make())


def test_vehicle_positions_given_as_lists_still_run():
    cfg = ScenarioConfig(vehicles=((1, [10.0, 10.0]), (2, [30.0, 10.0])), vehicle_radius=0.0)
    assert run(cfg) == run(replace(cfg, vehicles=((1, (10.0, 10.0)), (2, (30.0, 10.0)))))


INT_FIELDS = {
    "seed": lambda x: ScenarioConfig(seed=x),
    "max_slots": lambda x: ScenarioConfig(max_slots=x),
    "count": lambda x: build_world(ScenarioConfig(placement=Placement(count=x))),
    "cw_min": lambda x: CsmaConfig(cw_min=x),
    "cw_max": lambda x: CsmaConfig(cw_max=x),
}


@pytest.mark.parametrize("field", sorted(INT_FIELDS))
def test_integer_fields_take_only_integers(field):
    # As in scenario files: a float or a bool is a ConfigError, not a
    # TypeError later or a run on a truncated value; numpy integers pass.
    make = INT_FIELDS[field]
    unset = () if field == "max_slots" else (None,)  # max_slots is optional
    for bad in (True, "20", *unset, 20.0, np.float64(20.0), 20.5):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            make(bad)
    make(np.int64(20))
    make(np.uint16(20))


def test_integer_fields_run_as_integers():
    cfg = replace(load_scenario(LINE3), seed=np.int64(3), max_slots=np.int32(2))
    assert run(cfg).trace == run(replace(cfg, seed=3, max_slots=2)).trace
    placed = ScenarioConfig(placement=Placement(np.int16(3)), seed=1)
    assert run(placed).trace == run(ScenarioConfig(placement=Placement(3), seed=1)).trace


# ---------------------------------------------------------------------------
# Random placement


def _positions(cfg: ScenarioConfig) -> list[tuple[float, float]]:
    _, vehicles, _ = build_world(cfg)
    return [pos for _, pos in vehicles]


def _components(pts: list[tuple[float, float]], rng_range: float) -> int:
    seen = [False] * len(pts)
    comps = 0
    for start in range(len(pts)):
        if seen[start]:
            continue
        comps += 1
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            for j in range(len(pts)):
                if not seen[j] and math.dist(pts[i], pts[j]) <= rng_range:
                    seen[j] = True
                    stack.append(j)
    return comps


def test_placement_is_seeded_and_respects_constraints():
    cfg = ScenarioConfig(
        channel=ChannelConfig(comm_range=25.0),
        placement=Placement(count=8, min_separation=2.0),
        seed=3,
    )
    pts = _positions(cfg)
    assert pts == _positions(cfg)  # deterministic
    assert len(pts) == 8
    for i in range(8):
        assert 0.0 <= pts[i][0] <= 100.0 and 0.0 <= pts[i][1] <= 100.0
        for j in range(i + 1, 8):
            assert math.dist(pts[i], pts[j]) >= 2.0
    assert _components(pts, 25.0) == 1  # comm graph connected


def test_placement_seed_changes_layout():
    base = dict(
        channel=ChannelConfig(comm_range=25.0),
        placement=Placement(count=5),
    )
    assert _positions(ScenarioConfig(seed=1, **base)) != _positions(
        ScenarioConfig(seed=2, **base)
    )


def test_placement_honours_custom_area():
    cfg = ScenarioConfig(
        channel=ChannelConfig(comm_range=30.0),
        placement=Placement(count=4, area=(10.0, 60.0, 40.0, 90.0)),
        seed=7,
    )
    for x, y in _positions(cfg):
        assert 10.0 <= x <= 40.0 and 60.0 <= y <= 90.0


def test_placement_rejects_impossible_requests():
    with pytest.raises(ConfigError):
        _positions(
            ScenarioConfig(
                placement=Placement(count=50, area=(0.0, 0.0, 5.0, 5.0), min_separation=3.0)
            )
        )
    with pytest.raises(ConfigError):
        _positions(ScenarioConfig(placement=Placement(count=0)))
    with pytest.raises(ConfigError, match="degenerate"):
        _positions(ScenarioConfig(placement=Placement(count=2, area=(5.0, 5.0, 5.0, 9.0))))


def test_tiny_min_separation_places_vehicles():
    # s*s underflows to 0 here; the packing bound must not divide by it.
    cfg = ScenarioConfig(placement=Placement(2, min_separation=5e-324, connected=False))
    assert len(build_world(cfg)[1]) == 2


def test_separation_beyond_the_area_diagonal_fails_before_drawing(monkeypatch):
    # No two points of a 10 x 10 area are 20 m apart. The check must come
    # before the retry loop, which would otherwise spend 4M draws.
    def no_draws(*args, **kwargs):
        raise AssertionError("placement drew points")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    cfg = ScenarioConfig(
        placement=Placement(2, area=(0.0, 0.0, 10.0, 10.0), min_separation=20.0, connected=False)
    )
    with pytest.raises(ConfigError, match="diagonal"):
        build_world(cfg)


def test_separation_no_spread_of_the_count_reaches_fails_before_drawing(monkeypatch):
    # Three points pairwise 14 m apart do not fit in a 10 m square (the best
    # spread is 10 * (sqrt(6) - sqrt(2)) = 10.35 m), although the diagonal
    # and the disc-packing bound allow it.
    def no_draws(*args, **kwargs):
        raise AssertionError("placement drew points")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    cfg = ScenarioConfig(
        placement=Placement(3, area=(0.0, 0.0, 10.0, 10.0), min_separation=14.0, connected=False)
    )
    with pytest.raises(ConfigError, match="spread"):
        build_world(cfg)


def test_more_vehicles_than_olers_bound_fail_before_drawing(monkeypatch):
    # Oler's inequality allows at most 11 points pairwise 4.5 m apart in a
    # 10 m square; the retry loop would otherwise spend 4M draws.
    def no_draws(*args, **kwargs):
        raise AssertionError("placement drew points")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    cfg = ScenarioConfig(
        placement=Placement(12, area=(0.0, 0.0, 10.0, 10.0), min_separation=4.5, connected=False)
    )
    with pytest.raises(ConfigError, match="capacity bound"):
        build_world(cfg)


@pytest.mark.parametrize("s", [10.0, 2.0**-1060, 2.0**1000])
def test_a_line_along_a_thin_strip_goes_on_to_draw(monkeypatch, s):
    # Three points s apart fit on the long side of a 2s x s/1000 strip, where
    # Oler's bound is nearly tight.
    class Drew(Exception):
        pass

    def drew(*args, **kwargs):
        raise Drew

    monkeypatch.setattr(np.random, "default_rng", drew)
    placement = Placement(3, (0.0, 0.0, 2 * s, s / 1000), s, connected=False)
    with pytest.raises(Drew):
        build_world(ScenarioConfig(placement=placement))


def _optimal_spreads(side):
    """The best-spread layouts of 2, 3, 4, 5 and 9 points in a square."""
    t = (2 - math.sqrt(3)) * side
    h = side / 2
    yield [(0.0, 0.0), (side, side)]
    yield [(0.0, 0.0), (side, t), (t, side)]
    yield [(0.0, 0.0), (side, 0.0), (0.0, side), (side, side)]
    yield [(0.0, 0.0), (side, 0.0), (0.0, side), (side, side), (h, h)]
    yield [(x, y) for x in (0.0, h, side) for y in (0.0, h, side)]


@pytest.mark.parametrize("side", [10.0, 2.0**-1060, 2.0**1000])
def test_separation_of_an_optimal_spread_goes_on_to_draw(monkeypatch, side):
    # A separation that a best-spread layout reaches is feasible, so the
    # up-front checks must let it through to the draws.
    class Drew(Exception):
        pass

    def drew(*args, **kwargs):
        raise Drew

    monkeypatch.setattr(np.random, "default_rng", drew)
    for pts in _optimal_spreads(side):
        gap = min(math.dist(a, b) for i, a in enumerate(pts) for b in pts[i + 1 :])
        placement = Placement(len(pts), (0.0, 0.0, side, side), gap, connected=False)
        with pytest.raises(Drew):
            build_world(ScenarioConfig(placement=placement))


def test_empty_vehicle_list_is_a_config_error():
    with pytest.raises(ConfigError, match="at least one vehicle"):
        build_world(ScenarioConfig(vehicles=()))


# ---------------------------------------------------------------------------
# Sweeps


def _sweep_base() -> ScenarioConfig:
    return ScenarioConfig(
        channel=ChannelConfig(comm_range=25.0, capture_threshold=0.0),
        vehicle_radius=0.0,
        placement=Placement(count=3),
        initiators=(1,),
    )


def test_sweep_rows_and_subseeds():
    rows = sweep(_sweep_base(), counts=[3, 5], trials=2, seed=11)
    assert len(rows) == 4
    assert [(r["count"], r["trial"]) for r in rows] == [(3, 0), (3, 1), (5, 0), (5, 1)]
    for r in rows:
        assert r["seed"] == 11 * 1_000_000 + r["count"] * 1_000 + r["trial"]
        assert set(r) == set(SWEEP_COLUMNS)
        assert isinstance(r["converged"], bool)
        assert r["latency_ms"] == pytest.approx(r["quiescent_slot"] * 2.0)


def test_sweep_is_reproducible():
    a = sweep(_sweep_base(), counts=[4], trials=3, seed=2)
    b = sweep(_sweep_base(), counts=[4], trials=3, seed=2)
    assert a == b


def test_sweep_validates_arguments():
    with pytest.raises(ConfigError):
        sweep(_sweep_base(), counts=[], trials=1, seed=0)
    with pytest.raises(ConfigError):
        sweep(_sweep_base(), counts=[0], trials=1, seed=0)
    with pytest.raises(ConfigError):
        sweep(_sweep_base(), counts=[3], trials=0, seed=0)


NOT_INTEGERS = (3.0, 2.5, True, "3", None)


def test_sweep_names_counts_that_are_not_integers():
    for bad in NOT_INTEGERS:
        with pytest.raises(ConfigError, match=re.escape(f"counts must be an integer, got {bad!r}")):
            sweep(_sweep_base(), counts=[3, bad], trials=1, seed=0)


def test_sweep_names_trials_that_are_not_integers():
    for bad in NOT_INTEGERS:
        with pytest.raises(ConfigError, match=re.escape(f"trials must be an integer, got {bad!r}")):
            sweep(_sweep_base(), counts=[3], trials=bad, seed=0)


def test_sweep_names_seeds_that_are_not_integers():
    for bad in NOT_INTEGERS:
        with pytest.raises(ConfigError, match=re.escape(f"seed must be an integer, got {bad!r}")):
            sweep(_sweep_base(), counts=[3], trials=1, seed=bad)


def test_sweep_takes_numpy_integers():
    rows = sweep(_sweep_base(), counts=[np.int64(3)], trials=np.int32(2), seed=np.uint8(4))
    assert rows == sweep(_sweep_base(), counts=[3], trials=2, seed=4)


def test_sweep_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        sweep(_sweep_base(), counts=[3], trials=1, seed=-1)


def test_sweep_rejects_ranges_whose_subseeds_collide():
    # seed*1_000_000 + count*1_000 + trial repeats once a trial index or a
    # count reaches 1000: counts [1, 2] x 1001 trials give 2001 distinct seeds.
    with pytest.raises(ConfigError, match="trials"):
        sweep(_sweep_base(), counts=[1, 2], trials=1001, seed=0)
    with pytest.raises(ConfigError, match="counts"):
        sweep(_sweep_base(), counts=[3, 1000], trials=1, seed=0)


def test_sweep_csv_layout():
    rows = sweep(_sweep_base(), counts=[3], trials=2, seed=1)
    text = sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "3" and first[1] == "0"
    assert first[6] in ("True", "False")


@pytest.mark.parametrize("seed", [0, 42_000])
def test_default_scenario_stalls_at_slot_2(seed):
    # 100 vehicles of radius 1 m in the default zone (perfbench's occluded
    # workload; 42_000 is its first placement): each holds an UNCERTAIN cell,
    # so all initiate and send in slot 1, and half-duplex radios leave no
    # one listening. Slot 2 is silent and the run stalls with no reception.
    m = run(ScenarioConfig(placement=Placement(100), seed=seed))
    assert not m.converged
    assert m.quiescent_slot == 2 and m.last_tx_slot == 1
    assert set(m.tx_slots.values()) == {1}
    assert set(m.rx_slots.values()) == {0}


@pytest.mark.parametrize(
    "mac, trace",
    [
        ("l3", ["slot 1 | tx 1 | 1:S 2:D1", "slot 2 | tx 2 | 1:D2 2:S",
                "slot 3 | tx 1 | 1:S 2:D1", "slot 4 | tx - | 1:S 2:S"]),
        ("csma", ["round 1 | tx 1 | 2:D1", "round 2 | tx 2 | 1:D2",
                  "round 3 | tx 1 | 2:D1", "round 4 | tx - | idle"]),
    ],
)
def test_a_perfect_channel_stalls_on_01_against_00(mac, trace):
    # The object hides four blocks from vehicle 1 (01), which lie beyond
    # vehicle 2's range (00). Neither is sensed, so each merge keeps the
    # receiver's own value: every frame is decoded, yet the matrices differ.
    cfg = ScenarioConfig(
        vehicles=((1, (10.0, 10.0)), (2, (12.0, 30.0))),
        objects=(((20.0, 10.0), 2.0),),
        sensing_range=20.0,
        vehicle_radius=0.0,
        mac_mode=mac,
    )
    zone, vehicles, world = build_world(cfg)
    cells = [perceive(*v, world, zone, cfg.grid, cfg.sensing_range).cells for v in vehicles]
    assert [np.argwhere(c == BlockState.UNCERTAIN).tolist() for c in cells] == [
        [[1, 4], [1, 5], [2, 4], [2, 5]],
        [],
    ]
    assert (cells[1][1:3, 4:6] == BlockState.OUT_OF_SENSING).all()
    m = run(cfg)
    assert (m.converged, m.last_tx_slot, m.quiescent_slot) == (False, 3, 4)
    assert (m.tx_slots, m.rx_slots) == ({1: 2, 2: 1}, {1: 1, 2: 2})
    assert m.trace == trace
    assert (m.final_matrix.cells[1:3, 4:6] == BlockState.UNCERTAIN).all()  # vehicle 1's


def test_connected_placement_farther_apart_than_comm_range_is_rejected():
    cfg = ScenarioConfig(
        channel=ChannelConfig(comm_range=20.0), placement=Placement(3, min_separation=25.0)
    )
    with pytest.raises(ConfigError, match="exceeds comm_range"):
        build_world(cfg)


def test_placement_gives_up_after_its_retry_budget(monkeypatch):
    # 12 points 4 m apart pass Oler's bound for a 10 m square, but the best
    # spread of 12 there is about 3.89 m; 50 draws per attempt keeps it fast.
    monkeypatch.setattr(engine, "_DRAWS_PER_ATTEMPT", 50)
    cfg = ScenarioConfig(
        placement=Placement(12, area=(0.0, 0.0, 10.0, 10.0), min_separation=4.0, connected=False)
    )
    with pytest.raises(ConfigError, match="could not place 12 vehicles"):
        build_world(cfg)
