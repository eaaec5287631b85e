"""Property tests: resolve_slot against a pairwise reference written from
received_power and math.dist, over random small slots.

Stations sit on an integer lattice, so equal distances (and hence exact
power ties) are common, and 3-4-5 triangles put senders at exactly
comm_range. Payloads come from a small alphabet, so several
identical-payload groups form in most slots.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from zonecast import (
    COLLISION,
    DELIVERED,
    SILENCE,
    ChannelConfig,
    Packet,
    Transmission,
    ZoneIndex,
    received_power,
    resolve_slot,
)
from zonecast.channel import link_table

ZONES = (ZoneIndex(0, 0), ZoneIndex(1, 0))


def reference(txs, receivers, cfg):
    """The capture rule evaluated pair by pair, as (kind, packet) per receiver."""
    senders = {t.sender for t in txs}
    groups = {}
    for t in txs:
        groups.setdefault((t.packet.zone, t.packet.payload), []).append(t)
    out = {}
    for rid, rpos in receivers:
        if rid in senders:
            out[rid] = (SILENCE, None)
            continue
        audible = []
        for members in groups.values():
            near = [t for t in members if math.dist(t.sender_pos, rpos) <= cfg.comm_range]
            if not near:
                continue
            best = max(near, key=lambda t: (received_power(t.sender_pos, rpos, cfg), -t.sender))
            audible.append((received_power(best.sender_pos, rpos, cfg), best.sender, best.packet))
        if not audible:
            out[rid] = (SILENCE, None)
        elif len(audible) == 1:
            out[rid] = (DELIVERED, audible[0][2])
        else:
            audible.sort(key=lambda item: (-item[0], item[1]))
            strongest = audible[0][0]
            others = sum(10.0 ** ((p - strongest) / 10.0) for p, _, _ in audible[1:])
            if others <= 10.0 ** (-cfg.capture_threshold / 10.0):
                out[rid] = (DELIVERED, audible[0][2])
            else:
                out[rid] = (COLLISION, None)
    return out


@st.composite
def slots(draw):
    points = draw(
        st.lists(
            st.tuples(st.integers(0, 16), st.integers(0, 16)),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    ids = draw(st.permutations(range(1, 40)))[: len(points)]
    stations = [(vid, (float(x), float(y))) for vid, (x, y) in zip(ids, points)]
    txs = []
    for vid, pos in stations:
        label = draw(st.sampled_from([None, 0, 1, 2, 3]))
        if label is not None:
            zone = ZONES[label // 3]
            txs.append(Transmission(vid, pos, Packet(vid, zone, bytes([label]) * 4)))
    txs = draw(st.permutations(txs))
    receivers = draw(st.permutations(stations))
    cfg = ChannelConfig(
        comm_range=draw(st.sampled_from([5.0, 10.0, 13.0, 100.0])),
        capture_threshold=draw(st.sampled_from([0.0, 1.0, 3.0])),
        path_loss_exponent=draw(st.sampled_from([2.0, 3.0])),
    )
    return stations, txs, receivers, cfg


# An exact 0 dB tie: both senders are sqrt(104) m from the listener, where a
# round trip through 10**(p/10) and log10 under exponent 3 is inexact. The
# ratio of the two equal powers is exactly 1.0, so sender 2's frame is
# delivered.
SQRT104_TIE = (
    [(1, (0.0, 0.0)), (2, (2.0, 10.0)), (3, (10.0, 2.0))],
    [
        Transmission(3, (10.0, 2.0), Packet(3, ZONES[0], bytes([3]) * 4)),
        Transmission(2, (2.0, 10.0), Packet(2, ZONES[0], bytes([2]) * 4)),
    ],
    [(1, (0.0, 0.0)), (2, (2.0, 10.0)), (3, (10.0, 2.0))],
    ChannelConfig(comm_range=13.0, capture_threshold=0.0, path_loss_exponent=3.0),
)


def as_pairs(outcomes):
    return {rid: (o.kind, o.packet) for rid, o in outcomes.items()}


@settings(max_examples=300, deadline=None)
@given(slots())
@example(SQRT104_TIE)
def test_resolve_slot_matches_pairwise_reference(slot):
    stations, txs, receivers, cfg = slot
    want = reference(txs, receivers, cfg)
    assert as_pairs(resolve_slot(txs, receivers, cfg)) == want
    table = link_table(stations, cfg)
    got = resolve_slot(txs, receivers, cfg, table)
    assert as_pairs(got) == want
    assert list(got) == [rid for rid, _ in receivers]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)), min_size=1, max_size=10, unique=True
    ),
    st.floats(1.0, 60.0),
)
def test_link_table_is_bit_identical_to_the_scalar_model(points, comm_range):
    stations = list(enumerate(points, start=1))
    cfg = ChannelConfig(comm_range=comm_range, path_loss_exponent=3.0)
    table = link_table(stations, cfg)
    for rid, rpos in stations:
        links = table.links[table.index[rid]]
        for sid, spos in stations:
            j = table.index[sid]
            if rid != sid and math.dist(spos, rpos) <= comm_range:
                assert links[j] == received_power(spos, rpos, cfg)
            else:
                assert j not in links
