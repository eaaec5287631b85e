"""Property tests: random placement against the loop it replaced, which
tested every candidate against every placed point with ``any``/``all`` over
``math.dist``.

The areas are a few ulps wide, so every drawn coordinate is a lattice
point and ``min_separation`` and ``comm_range`` can be set to exact lattice
distances: candidates land exactly on a threshold, where the placement must
decide as the old loop did. The lattices sit at unit scale, at 2**40, in
the subnormal range and near 2**1000. Off the lattices, thresholds are set
to the exact gap between the first two drawn points, and ordinary
placements in a 100 m zone are compared too, and layouts of 80 to 100
vehicles on each side of the squares' choice: one square (an infinite range,
an area of two squares an axis) and many (far from the origin, and squares
of min_separation when not connected).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonecast.channel import ChannelConfig
from zonecast.engine import Placement, ScenarioConfig, _place_vehicles
from zonecast.grid import _square_side


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


def reference_place(cfg: ScenarioConfig):
    """The drawing loop of the old placement, for inputs that pass its
    up-front checks, with the N x N connectivity check it applied to every
    connected layout."""
    p = cfg.placement
    if p.area is not None:
        x0, y0, x1, y1 = p.area
    else:
        ox, oy = cfg.grid.origin
        x0, y0, x1, y1 = ox, oy, ox + cfg.grid.zone_side, oy + cfg.grid.zone_side
    rng = np.random.default_rng([cfg.seed, 0x9E3779B9])
    for _ in range(200):
        pts: list[tuple[float, float]] = []
        tries = 0
        while len(pts) < p.count and tries < 20_000:
            tries += 1
            x = float(rng.uniform(x0, x1))
            y = float(rng.uniform(y0, y1))
            if any(math.dist((x, y), q) < p.min_separation for q in pts):
                continue
            if p.connected and pts and all(
                math.dist((x, y), q) > cfg.channel.comm_range for q in pts
            ):
                continue
            pts.append((x, y))
        if len(pts) < p.count:
            continue
        if p.connected and not _is_connected(np.array(pts), cfg.channel.comm_range):
            continue
        return tuple((i + 1, pos) for i, pos in enumerate(pts))
    raise AssertionError("reference placement gave up")


# (origin, ulp) of lattices at several scales; 0.0 gives subnormal spacing.
LATTICES = ((1.0, 2.0**-52), (2.0**40, 2.0**-12), (0.0, 5e-324), (2.0**1000, 2.0**948))


@st.composite
def lattice_configs(draw):
    """Lattices of 5-7 points a side with separations of 0, 1 or sqrt(2)
    steps, comm ranges up to 2*sqrt(2) steps and up to 7 vehicles. Every
    layout fits, so no draw loop runs out of tries."""
    origin, ulp = draw(st.sampled_from(LATTICES))

    def step(i, j):
        return math.dist((origin, origin), (origin + i * ulp, origin + j * ulp))

    side, count = draw(st.integers(4, 6)), draw(st.integers(2, 7))
    sep = step(*draw(st.sampled_from(((0, 0), (1, 0), (1, 1)))))
    reach = step(*draw(st.sampled_from(((1, 0), (1, 1), (2, 0), (2, 1), (2, 2)))))
    connected = draw(st.booleans()) and reach >= sep
    end = origin + side * ulp
    return ScenarioConfig(
        channel=ChannelConfig(comm_range=reach),
        placement=Placement(count, (origin, origin, end, end), sep, connected),
        seed=draw(st.integers(0, 2**32)),
    )


@given(lattice_configs())
@settings(max_examples=300, deadline=None)
def test_lattice_placement_matches_the_math_dist_loop(cfg):
    assert _place_vehicles(cfg) == reference_place(cfg)


@given(
    st.integers(2, 60),
    st.sampled_from((0.5, 1.0, 5.0)),
    st.sampled_from((10.0, 20.0, 40.0)),
    st.booleans(),
    st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_zone_placement_matches_the_math_dist_loop(count, sep, reach, connected, seed):
    cfg = ScenarioConfig(
        channel=ChannelConfig(comm_range=reach),
        placement=Placement(count, None, sep, connected),
        seed=seed,
    )
    assert _place_vehicles(cfg) == reference_place(cfg)


@pytest.mark.parametrize("side", [100.0, 1e-310, 2.0**1000])
def test_thresholds_equal_to_the_first_drawn_gap(side):
    # A threshold set to exactly the math.dist of the first two draws:
    # the second point is accepted at min_separation == gap and at
    # comm_range == gap.
    area = (0.0, 0.0, side, side)
    for seed in range(40):
        rng = np.random.default_rng([seed, 0x9E3779B9])
        first, second = [(float(rng.uniform(0, side)), float(rng.uniform(0, side))) for _ in "ab"]
        gap = math.dist(first, second)
        for cfg in (
            ScenarioConfig(placement=Placement(2, area, gap, False), seed=seed),
            ScenarioConfig(
                channel=ChannelConfig(comm_range=gap),
                placement=Placement(2, area, 0.0, True),
                seed=seed,
            ),
        ):
            assert _place_vehicles(cfg) == reference_place(cfg)


def test_exact_ties_are_decided_as_math_dist_decides():
    # At unit scale the lattice step is one ulp: separations of exactly one
    # step sit on the threshold and must be accepted (math.dist is not < s).
    ulp = 2.0**-52
    cfg = ScenarioConfig(
        channel=ChannelConfig(comm_range=ulp),
        placement=Placement(5, (1.0, 1.0, 1.0 + 4 * ulp, 1.0 + 4 * ulp), ulp, True),
    )
    placed = _place_vehicles(cfg)
    assert placed == reference_place(cfg)
    gaps = [math.dist(a, b) for i, (_, a) in enumerate(placed) for _, b in placed[i + 1:]]
    assert min(gaps) == ulp


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_draws_continue_across_attempts(seed):
    # Two points at 70% of their best spread, the diagonal, in a 10 m
    # square: for these seeds the first attempt's 20,000 draws place only
    # one, and a later attempt's draws must go on from where it stopped,
    # partway into a block of draws.
    cfg = ScenarioConfig(
        placement=Placement(2, (0.0, 0.0, 10.0, 10.0), 0.7 * math.sqrt(200.0), False),
        seed=seed,
    )
    rng = np.random.default_rng([seed, 0x9E3779B9])
    first = (float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 10.0)))
    placed = _place_vehicles(cfg)
    assert placed[0][1] != first  # an attempt's first draw is always kept
    assert placed == reference_place(cfg)


def one_square(cfg: ScenarioConfig) -> bool:
    """Whether placement measures a candidate against every placed point."""
    p = cfg.placement
    x0, y0, x1, y1 = p.area or (0.0, 0.0, cfg.grid.zone_side, cfg.grid.zone_side)
    reach = max(p.min_separation, cfg.channel.comm_range if p.connected else 0.0)
    return _square_side(reach, p.count, ((x0, y0), (x1, y1))) == math.inf


FAR = 2.0**40
SQUARE_PLACEMENTS = {
    # An infinite side: one square.
    "infinite range": (ChannelConfig(comm_range=math.inf), Placement(80), True),
    # occluded's layout: a 100 m range over the 100 m zone is one square.
    "two squares an axis": (ChannelConfig(), Placement(100), True),
    "far from the origin": (
        ChannelConfig(comm_range=20.0),
        Placement(80, (FAR, FAR, FAR + 100.0, FAR + 100.0)),
        False,
    ),
    # Not connected: 5 m squares, though the range alone would make one.
    "min_separation alone": (ChannelConfig(), Placement(80, None, 5.0, False), False),
}


@pytest.mark.parametrize("name", SQUARE_PLACEMENTS)
def test_square_placements_match_the_math_dist_loop(name):
    channel, placement, one = SQUARE_PLACEMENTS[name]
    for seed in (0, 7):
        cfg = ScenarioConfig(channel=channel, placement=placement, seed=seed)
        assert one_square(cfg) is one
        assert _place_vehicles(cfg) == reference_place(cfg)
