"""Property tests: resolve_slot against a pairwise reference written from
received_power and math.dist, over random small slots.

Stations sit on an integer lattice, so equal distances (and hence exact
power ties) are common, and 3-4-5 triangles put senders at exactly
comm_range. Payloads come from a small alphabet, so several
identical-payload groups form in most slots. The link table lists the
stations in a drawn order. The reference decides every station, silence
included; resolve_slot must return its other entries, keyed by ascending
position in the table, and no entry for a silent station.

These slots are small, so resolve_slot decides them with its scalar loop.
The array-path tests patch its cut to 0 inside the test body, so that the
ranked rows and the float filter decide every slot.

The link table's squares are checked against the all-pairs loop they
replaced, kept as ``reference_links``: on lattices of more than 64 stations
whose step divides comm_range, at the placement tests' four scales, and on
non-finite stations, an infinite or subnormal range and a difference that
rounds onto comm_range.
"""

import itertools
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_placement_properties import LATTICES

from zonecast import (
    COLLISION,
    DELIVERED,
    ChannelConfig,
    Packet,
    ZoneIndex,
    channel,
    link_table,
    received_power,
    resolve_slot,
)
from zonecast.grid import _square_side

ZONES = (ZoneIndex(0, 0), ZoneIndex(1, 0))
SILENCE = "silence"  # the reference's outcome for a station that hears nothing


def reference(packets, stations, cfg):
    """The capture rule evaluated pair by pair, as (kind, packet) per station."""
    where = dict(stations)
    senders = {pkt.sender for pkt in packets}
    groups = {}
    for pkt in packets:
        groups.setdefault((pkt.zone, pkt.payload), []).append(pkt)
    out = {}
    for rid, rpos in stations:
        if rid in senders:
            out[rid] = (SILENCE, None)
            continue
        audible = []
        for members in groups.values():
            near = [m for m in members if math.dist(where[m.sender], rpos) <= cfg.comm_range]
            if not near:
                continue
            best = max(near, key=lambda m: (received_power(where[m.sender], rpos, cfg), -m.sender))
            audible.append((received_power(where[best.sender], rpos, cfg), best.sender, best))
        if not audible:
            out[rid] = (SILENCE, None)
        elif len(audible) == 1:
            out[rid] = (DELIVERED, audible[0][2])
        else:
            audible.sort(key=lambda item: (-item[0], item[1]))
            strongest = audible[0][0]
            others = 0.0  # a plain left-to-right fold: builtin sum compensates on 3.12+
            for p, _, _ in audible[1:]:
                others += 10.0 ** ((p - strongest) / 10.0)
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
    packets = []
    for vid, _ in stations:
        label = draw(st.sampled_from([None, 0, 1, 2, 3]))
        if label is not None:
            packets.append(Packet(vid, ZONES[label // 3], bytes([label]) * 4))
    packets = draw(st.permutations(packets))
    table_order = draw(st.permutations(stations))
    cfg = ChannelConfig(
        comm_range=draw(st.sampled_from([5.0, 10.0, 13.0, 100.0])),
        capture_threshold=draw(st.sampled_from([0.0, 1.0, 3.0])),
        path_loss_exponent=draw(st.sampled_from([2.0, 3.0])),
    )
    return stations, packets, table_order, cfg


# An exact 0 dB tie: both senders are sqrt(104) m from the listener, where a
# round trip through 10**(p/10) and log10 under exponent 3 is inexact. The
# ratio of the two equal powers is exactly 1.0, so sender 2's frame is
# delivered.
SQRT104_TIE = (
    [(1, (0.0, 0.0)), (2, (2.0, 10.0)), (3, (10.0, 2.0))],
    [Packet(3, ZONES[0], bytes([3]) * 4), Packet(2, ZONES[0], bytes([2]) * 4)],
    [(3, (10.0, 2.0)), (1, (0.0, 0.0)), (2, (2.0, 10.0))],
    ChannelConfig(comm_range=13.0, capture_threshold=0.0, path_loss_exponent=3.0),
)


def check(got, table, want):
    """``got``, resolve_slot's outcomes over ``table``, holds the reference's
    ``want`` minus its silence, keyed by ascending k."""
    assert list(got) == sorted(got)
    heard = {table.stations[k][0]: (o.kind, o.packet) for k, o in got.items()}
    assert heard == {rid: out for rid, out in want.items() if out[0] != SILENCE}


@settings(max_examples=300, deadline=None)
@given(slots())
@example(SQRT104_TIE)
def test_resolve_slot_matches_pairwise_reference(slot):
    stations, packets, table_order, cfg = slot
    table = link_table(table_order, cfg)
    check(resolve_slot(packets, table), table, reference(packets, stations, cfg))


def array_path():
    """Send every slot of the block to resolve_slot's array path."""
    return mock.patch.object(channel, "_DENSE_SLOT_LINKS", 0)


@settings(max_examples=150, deadline=None)
@given(slots())
@example(SQRT104_TIE)
def test_array_path_matches_pairwise_reference(slot):
    stations, packets, table_order, cfg = slot
    table = link_table(table_order, cfg)
    with array_path():
        got = resolve_slot(packets, table)
    check(got, table, reference(packets, stations, cfg))


@st.composite
def lattice_slots(draw):
    """Up to 40 stations on a 0.5 m lattice, as in the bundled grid9 and fig5
    scenarios: many listeners hear two groups at one distance, an exact
    0 dB tie whose ratio sum of 1.0 sits exactly on the 0 dB bound."""
    points = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=6,
            max_size=40,
            unique=True,
        )
    )
    ids = draw(st.permutations(range(1, 41)))[: len(points)]
    stations = [(vid, (x / 2, y / 2)) for vid, (x, y) in zip(ids, points)]
    packets = []
    for vid, _ in stations:
        label = draw(st.sampled_from([None, None, None, 0, 1, 2, 3, 4, 5]))
        if label is not None:
            packets.append(Packet(vid, ZONES[label // 3], bytes([label]) * 4))
    cfg = ChannelConfig(
        comm_range=draw(st.sampled_from([0.5, 1.0, 1.5])),
        capture_threshold=draw(st.sampled_from([0.0, 0.0, 3.0])),
        path_loss_exponent=draw(st.sampled_from([2.0, 3.0])),
    )
    return stations, packets, draw(st.permutations(stations)), cfg


# Station 1 hears 2 and 3, 0.5 m away on either side, and nothing else.
LATTICE_TIE = (
    [(1, (1.0, 1.0)), (2, (0.5, 1.0)), (3, (1.5, 1.0)), (4, (1.0, 0.5))],
    [Packet(2, ZONES[0], bytes([2]) * 4), Packet(3, ZONES[0], bytes([3]) * 4)],
    [(4, (1.0, 0.5)), (3, (1.5, 1.0)), (2, (0.5, 1.0)), (1, (1.0, 1.0))],
    ChannelConfig(comm_range=0.5, capture_threshold=0.0, path_loss_exponent=3.0),
)


def test_array_filter_falls_back_on_lattice_ties_and_agrees():
    folds = []

    @settings(max_examples=60, deadline=None)
    @given(lattice_slots())
    @example(LATTICE_TIE)
    def agrees(slot):
        stations, packets, table_order, cfg = slot
        table = link_table(table_order, cfg)
        with array_path(), mock.patch.object(
            channel, "_captures", wraps=channel._captures
        ) as fold:
            got = resolve_slot(packets, table)
        folds.append(fold.call_count)  # on the array path, only close calls fold
        check(got, table, reference(packets, stations, cfg))

    agrees()
    assert sum(folds) > 0


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


def reference_links(stations, cfg):
    """The link table's loop before squares: every pair, with math.dist."""
    links = [{} for _ in stations]
    for (i, p), (j, q) in itertools.combinations(enumerate(pos for _, pos in stations), 2):
        if math.dist(q, p) <= cfg.comm_range:
            links[i][j] = links[j][i] = received_power(q, p, cfg)
    return links


def uses_squares(stations, cfg):
    finite = [pos for _, pos in stations if all(map(math.isfinite, pos))]
    return _square_side(cfg.comm_range, len(stations), finite) < math.inf


LATTICE_CELLS = list(itertools.product(range(-6, 7), repeat=2))


@st.composite
def lattice_tables(draw):
    """65-100 stations of a 13 x 13 lattice at one of the placement tests'
    scales, mirrored to negative coordinates on a drawn axis, with a step of
    2**k ulps and a comm_range of 1, 2, 3 or 5 steps: pairs sit exactly at
    comm_range, many across a square's edge."""
    origin, ulp = draw(st.sampled_from(LATTICES))
    step = ulp * 2.0 ** draw(st.integers(0, 41))
    sx, sy = draw(st.sampled_from(((1, 1), (-1, 1), (1, -1), (-1, -1))))
    count = draw(st.integers(65, 100))
    cells = draw(st.randoms(use_true_random=False)).sample(LATTICE_CELLS, count)
    stations = [
        (k, (sx * origin + i * step, sy * origin + j * step)) for k, (i, j) in enumerate(cells)
    ]
    reach = draw(st.sampled_from((1, 2, 3, 5))) * step
    return stations, ChannelConfig(comm_range=reach, path_loss_exponent=3.0)


@settings(max_examples=25, deadline=None)
@given(lattice_tables())
def test_lattice_link_tables_match_the_all_pairs_loop(case):
    stations, cfg = case
    assert link_table(stations, cfg).links == reference_links(stations, cfg)


def spread(count, x0=10.0, y0=10.0, gap=3.0):
    """``count`` stations on a 10-wide lattice ``gap`` apart, ids from 100."""
    return [(100 + k, (x0 + gap * (k % 10), y0 + gap * (k // 10))) for k in range(count)]


SQUARE_CASES = {
    # Non-finite stations get no square and, at a finite range, no link.
    "non-finite": (
        [(1, (math.inf, 0.0)), (2, (-math.inf, 5.0)), (3, (math.nan, 1.0)), (4, (2.0, math.nan))]
        + [(5, (math.inf, math.inf)), (6, (11.0, 11.0))]
        + spread(70),
        ChannelConfig(comm_range=4.0),
        True,
    ),
    # One square: an infinite station links to every finite one, at -inf dB.
    "infinite range": (
        [(1, (math.inf, 0.0)), (2, (math.nan, 0.0))] + spread(70),
        ChannelConfig(comm_range=math.inf),
        False,
    ),
    # 100 / 5e-324 overflows: one square, and the pair 5e-324 apart links.
    "subnormal range": (
        [(1, (0.0, 0.0)), (2, (5e-324, 0.0))] + spread(70),
        ChannelConfig(comm_range=5e-324),
        False,
    ),
    # 1 - (-2**-80) rounds to 1.0, so math.dist puts the pair at comm_range
    # while it lies farther apart: without the slack, two squares apart.
    "rounded onto the range": (
        [(1, (-(2.0**-80), 0.0)), (2, (1.0, 0.0))] + spread(70),
        ChannelConfig(comm_range=1.0),
        True,
    ),
}


@pytest.mark.parametrize("name", SQUARE_CASES)
def test_square_cases_match_the_all_pairs_loop(name):
    stations, cfg, squares = SQUARE_CASES[name]
    assert uses_squares(stations, cfg) is squares
    assert link_table(stations, cfg).links == reference_links(stations, cfg)
