"""Slot resolution: log-distance power, capture margins, identical-frame
combining, and range cut-offs.

Expected powers are computed by hand from p = -10*exp*log10(d):
15 m -> -23.52 dB, 45 m -> -33.06 dB (margin 9.54 dB), 10 m -> -20 dB,
17 m -> -24.61 dB (two of them sum to -21.60 dB, margin 1.60 dB),
20 m -> -26.02 dB (two of them sum to -23.01 dB, margin 3.01 dB).
"""

import contextlib
import math
import types
from dataclasses import replace
from unittest import mock

import pytest

from zonecast import (
    COLLISION,
    DELIVERED,
    ChannelConfig,
    Packet,
    ZoneIndex,
    bundled_scenario,
    channel,
    link_table,
    load_scenario,
    received_power,
    resolve_slot,
    run,
)
from zonecast.channel import DegenerateGeometryError, InvalidSlotError

Z = ZoneIndex(0, 0)
CFG = ChannelConfig()  # 100 m range, 3 dB margin, exponent 2


def pkt(sender, payload=b"\x01" * 100):
    return Packet(sender, Z, payload)


def resolve(stations, packets, cfg=CFG):
    """Resolve one slot over a link table of ``stations``, {id: position}:
    the outcomes, keyed by station id."""
    table = link_table(list(stations.items()), cfg)
    out = resolve_slot(packets, table)
    assert list(out) == sorted(out)
    return {table.stations[k][0]: o for k, o in out.items()}


def test_received_power_log_distance_values():
    assert received_power((0, 0), (15, 0), CFG) == pytest.approx(-23.5218, abs=1e-3)
    assert received_power((0, 0), (45, 0), CFG) == pytest.approx(-33.0643, abs=1e-3)
    assert received_power((0, 0), (1, 0), CFG) == pytest.approx(0.0)


def test_received_power_exponent_scale():
    steep = ChannelConfig(path_loss_exponent=3.0)
    assert received_power((0, 0), (10, 0), steep) == pytest.approx(-30.0)


def test_zero_distance_is_degenerate():
    with pytest.raises(DegenerateGeometryError):
        received_power((5, 5), (5, 5), CFG)


def test_single_sender_reaches_everyone_in_range():
    out = resolve({1: (0, 0), 2: (15, 0), 3: (0, 40)}, [pkt(1)])
    assert 1 not in out  # transmitters hear nothing
    assert out[2].kind == DELIVERED and out[2].packet.sender == 1
    assert out[3].kind == DELIVERED


def test_closer_sender_captures_when_margin_clears_threshold():
    # margin 9.54 dB >= 3 dB: the 15 m frame is decoded despite the 45 m one
    stations = {1: (0, 0), 2: (15, 0), 3: (45, 0)}
    out = resolve(stations, [pkt(2, b"\x02" * 100), pkt(3, b"\x03" * 100)])
    assert out[1].kind == DELIVERED
    assert out[1].packet.sender == 2


def test_sum_of_interferers_blocks_capture():
    # 10 m strongest vs two 17 m interferers: margin 1.60 dB < 3 dB
    packets = [pkt(2, b"\x02" * 100), pkt(3, b"\x03" * 100), pkt(4, b"\x04" * 100)]
    out = resolve({1: (0, 0), 2: (10, 0), 3: (0, 17), 4: (0, -17)}, packets)
    assert out[1].kind == COLLISION
    # at 20 m the same pair sums 3.01 dB below the strongest: just enough
    out = resolve({1: (0, 0), 2: (10, 0), 3: (0, 20), 4: (0, -20)}, packets)
    assert out[1].kind == DELIVERED
    assert out[1].packet.sender == 2


def test_equidistant_different_payloads_collide():
    stations = {1: (0, 0), 2: (10, 0), 3: (-10, 0)}
    out = resolve(stations, [pkt(2, b"\x02" * 100), pkt(3, b"\x03" * 100)])
    assert out[1].kind == COLLISION


def test_identical_payloads_combine_instead_of_colliding():
    payload = b"\x2a" * 100
    out = resolve({1: (0, 0), 2: (10, 0), 3: (-10, 0)}, [pkt(2, payload), pkt(3, payload)])
    assert out[1].kind == DELIVERED
    assert out[1].packet.payload == payload


def test_identical_frame_group_power_is_its_best_member():
    # group {2,3} has best power at 10 m (-20 dB); lone sender 4 at 14 m
    # (-22.92 dB) is 2.92 dB down, below the 3 dB margin -> collision. Moving
    # 4 to 15 m (-23.52 dB) lifts the margin to 3.52 dB -> the group wins.
    payload = b"\x2a" * 100
    packets = [pkt(2, payload), pkt(3, payload), pkt(4, b"\x04" * 100)]
    stations = {1: (0, 0), 2: (10, 0), 3: (0, 30), 4: (0, -14)}
    assert resolve(stations, packets)[1].kind == COLLISION
    stations[4] = (0, -15)
    out = resolve(stations, packets)
    assert out[1].kind == DELIVERED
    assert out[1].packet.payload == payload


def test_out_of_range_transmissions_neither_deliver_nor_interfere():
    stations = {1: (0, 0), 2: (10, 0), 3: (150, 0)}
    out = resolve(stations, [pkt(2, b"\x02" * 100), pkt(3, b"\x03" * 100)])
    assert out[1].kind == DELIVERED
    assert out[1].packet.sender == 2
    # with only the far transmitter the slot is silent, not a collision
    out = resolve(stations, [pkt(3)])
    assert 1 not in out


def test_group_power_counts_only_in_range_members():
    # Sender 1 sits one ulp past the 20 m range edge, yet its power rounds to
    # the same -39.03 dB as sender 2's at exactly 20 m. The group is heard
    # only through sender 2, so the frame delivered is sender 2's.
    edge = ChannelConfig(comm_range=20.0, path_loss_exponent=3.0)
    payload = b"\x2a" * 100
    far, near = (0.0, math.nextafter(20.0, math.inf)), (20.0, 0.0)
    assert received_power(far, (0, 0), edge) == received_power(near, (0, 0), edge)
    stations = {1: far, 2: near, 3: (0.0, 0.0)}
    out = resolve(stations, [pkt(1, payload), pkt(2, payload)], edge)
    assert out[3].kind == DELIVERED and out[3].packet.sender == 2
    assert 3 not in resolve(stations, [pkt(1, payload)], edge)


def test_zero_threshold_delivers_any_strictly_stronger_frame():
    lax = ChannelConfig(capture_threshold=0.0)
    stations = {1: (0, 0), 2: (10, 0), 3: (10.5, 0.0001)}
    out = resolve(stations, [pkt(2, b"\x02" * 100), pkt(3, b"\x03" * 100)], lax)
    assert out[1].kind == DELIVERED
    assert out[1].packet.sender == 2


def test_exact_tie_at_zero_threshold_goes_to_the_lowest_sender():
    # Both senders are sqrt(104) m from the listener, so their powers are one
    # double and sender 3's ratio to sender 2 is exactly 1.0, the 0 dB bound.
    # A margin taken through 10**(p/10) and log10 reads just below 0 dB at
    # this distance under exponent 3, and would call the slot a collision.
    tie = ChannelConfig(comm_range=20.0, capture_threshold=0.0, path_loss_exponent=3.0)
    stations = {1: (50.0, 50.0), 2: (52.0, 60.0), 3: (60.0, 52.0)}
    out = resolve(stations, [pkt(3, b"\x03" * 100), pkt(2, b"\x02" * 100)], tie)
    assert out[1].kind == DELIVERED and out[1].packet.sender == 2


def array_path():
    """Send every slot of the block to resolve_slot's array path."""
    return mock.patch.object(channel, "_DENSE_SLOT_LINKS", 0)


BOTH_PATHS = pytest.mark.parametrize(
    "path", [contextlib.nullcontext, array_path], ids=["scalar", "array"]
)


@BOTH_PATHS
def test_capture_sum_is_a_left_to_right_fold(path):
    # Listener 1 hears 2 and 3 at 1 m and 4 and 5 at 10**0.8 m, each its own
    # group; under exponent 20 the others' ratios to 2 are 1.0, 1e-16 and
    # 1e-16. Added left to right they stay 1.0, the 0 dB bound, so 2's frame
    # is delivered. A compensated sum (math.fsum, or builtin sum from Python
    # 3.12) reads 1.0000000000000002, which would collide.
    cfg = ChannelConfig(comm_range=10.0, capture_threshold=0.0, path_loss_exponent=20.0)
    far = 10**0.8
    stations = {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (0.0, 1.0), 4: (-far, 0.0), 5: (0.0, -far)}
    powers = [received_power(stations[s], (0.0, 0.0), cfg) for s in (2, 3, 4, 5)]
    ratios = [10.0 ** ((p - powers[0]) / 10.0) for p in powers[1:]]
    assert ratios == [1.0, 1e-16, 1e-16] and math.fsum(ratios) > 1.0
    with path():
        out = resolve(stations, [pkt(s, bytes([s]) * 100) for s in (2, 3, 4, 5)], cfg)
    assert out[1].kind == DELIVERED and out[1].packet.sender == 2


@BOTH_PATHS
def test_a_ratio_exactly_on_the_bound_captures(path):
    # Sender 3's ratio to sender 2 at listener 1 is 10.0 ** (p / 10), p its
    # power at 15 m, and the margin is -p dB, so the bound is that same double
    # and 2's frame is delivered. numpy 2.4's np.power (AVX-512, x86-64) reads
    # the ratio one ulp above libm's pow: the array path must fold it again.
    p = received_power((15.0, 0.0), (0.0, 0.0), CFG)
    cfg = ChannelConfig(capture_threshold=-p)
    assert 10.0 ** (-cfg.capture_threshold / 10.0) == 10.0 ** (p / 10.0)
    stations = {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (15.0, 0.0)}
    with path():
        out = resolve(stations, [pkt(2, b"\x02" * 100), pkt(3, b"\x03" * 100)], cfg)
    assert out[1].kind == DELIVERED and out[1].packet.sender == 2


@BOTH_PATHS
def test_the_link_tables_threshold_decides_the_slot(path):
    # 15 m against 45 m is a 9.54 dB margin: over a 3 dB threshold, under 10 dB.
    stations = [(1, (0.0, 0.0)), (2, (15.0, 0.0)), (3, (45.0, 0.0))]
    packets = [pkt(2, b"\x02" * 100), pkt(3, b"\x03" * 100)]
    for threshold, kind in ((3.0, DELIVERED), (10.0, COLLISION)):
        table = link_table(stations, ChannelConfig(capture_threshold=threshold))
        with path():
            assert resolve_slot(packets, table)[table.index[1]].kind == kind


@pytest.mark.parametrize("direction", [math.inf, -math.inf])
def test_bundled_traces_do_not_depend_on_the_last_bit_of_log10(monkeypatch, direction):
    # The grid9 scenarios hold exact 0 dB ties. Another libm may round log10
    # one ulp the other way; every tie must still resolve as it does here.
    names = ("fig5_line3", "grid9_corner", "grid9_middle")
    cfgs = [
        replace(load_scenario(bundled_scenario(name)), mac_mode=mac)
        for name in names
        for mac in ("l3", "csma")
    ]
    want = [run(cfg).trace for cfg in cfgs]
    shifted = types.SimpleNamespace(
        **{**vars(math), "log10": lambda x: math.nextafter(math.log10(x), direction)}
    )
    monkeypatch.setattr(channel, "math", shifted)
    assert [run(cfg).trace for cfg in cfgs] == want


def test_empty_slot_is_silent_everywhere():
    assert resolve({1: (0, 0), 2: (5, 5)}, []) == {}


@BOTH_PATHS
def test_a_station_out_of_every_senders_range_has_no_outcome(path):
    # Station 4 lies 200 m from every sender, past the 100 m range; listeners
    # 1 and 5 hear the senders, and the senders 2 and 3 hear nothing.
    stations = {5: (0.0, 0.0), 2: (10.0, 0.0), 4: (210.0, 0.0), 3: (-10.0, 0.0), 1: (0.0, 5.0)}
    table = link_table(list(stations.items()), CFG)
    with path():
        out = resolve_slot([pkt(2, b"\x02" * 100), pkt(3, b"\x03" * 100)], table)
    assert list(out) == [table.index[5], table.index[1]]
    assert {o.kind for o in out.values()} == {COLLISION}


def test_duplicate_sender_rejected():
    with pytest.raises(InvalidSlotError):
        resolve({1: (0, 0), 2: (10, 0)}, [pkt(2), pkt(2, b"\x02" * 100)])


def test_sender_outside_the_table_rejected():
    with pytest.raises(InvalidSlotError, match=r"\[3\]"):
        resolve({1: (0, 0), 2: (10, 0)}, [pkt(2), pkt(3)])


@pytest.mark.parametrize("far_first", [False, True])
def test_link_table_rejects_a_station_id_listed_twice(far_first):
    # Vehicle 1 near sender 2 and vehicle 1 far from it: whichever entry
    # came last used to take over the id, so the order decided the outcome.
    entries = [(1, (0.0, 0.0)), (1, (500.0, 0.0))]
    with pytest.raises(InvalidSlotError, match="duplicate station id"):
        link_table([(2, (0.0, 1.0))] + entries[::-1 if far_first else 1], CFG)


def test_listener_colocated_with_a_sender_is_degenerate():
    with pytest.raises(DegenerateGeometryError):
        resolve({2: (10, 0), 1: (10, 0)}, [pkt(2)])


def test_colocated_listeners_are_degenerate():
    # The link table links every pair of stations, so two listeners at one
    # position raise even though neither is a sender.
    with pytest.raises(DegenerateGeometryError):
        resolve({2: (10, 0), 1: (0, 0), 3: (0, 0)}, [pkt(2)])


def test_link_table_checks_its_stations_before_any_slot(monkeypatch):
    # The links are measured on first read, yet a bad station list fails at
    # construction, with no slot resolved and no power computed.
    monkeypatch.setattr(channel, "received_power", None)
    with pytest.raises(InvalidSlotError, match="duplicate station id"):
        link_table([(1, (0.0, 0.0)), (2, (5.0, 0.0)), (1, (500.0, 0.0))], CFG)
    with pytest.raises(DegenerateGeometryError):
        link_table([(2, (10, 0)), (1, (900.0, 0.0)), (3, (10.0, 0.0))], CFG)
    # Non-finite positions are never linked, so they are never degenerate.
    table = link_table([(1, (math.inf, 0.0)), (2, (math.inf, 0.0)), (3, (math.nan, 0.0))], CFG)
    assert table.links == [{}, {}, {}]


def test_determinism_same_slot_same_outcome():
    stations = {1: (0, 0), 2: (10, 1), 3: (-9, 3), 4: (30, 30)}
    packets = [pkt(2, b"\x02" * 100), pkt(3, b"\x03" * 100)]
    first = resolve(stations, packets)
    second = resolve(dict(stations), list(packets))
    assert {k: (v.kind, v.packet) for k, v in first.items()} == {
        k: (v.kind, v.packet) for k, v in second.items()
    }


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(comm_range=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(capture_threshold=-1.0)
    with pytest.raises(ValueError):
        ChannelConfig(path_loss_exponent=0.0)


@pytest.mark.parametrize("field", ["comm_range", "capture_threshold", "path_loss_exponent"])
def test_config_rejects_nan(field):
    # A NaN passes every `x <= 0` test; `not x > 0` rejects it.
    with pytest.raises(ValueError, match=field):
        ChannelConfig(**{field: math.nan})


@pytest.mark.parametrize("exponent", [math.inf, 1e308, 6e304])
def test_config_rejects_an_exponent_whose_powers_overflow(exponent):
    with pytest.raises(ValueError, match="path_loss_exponent"):
        ChannelConfig(path_loss_exponent=exponent)


def test_largest_exponent_keeps_every_power_finite():
    cfg = ChannelConfig(path_loss_exponent=5.5e304)
    for d in (5e-324, 1.7976931348623157e308):
        assert math.isfinite(received_power((0.0, 0.0), (d, 0.0), cfg))
