"""Acceptance suite: end-to-end behavioral guarantees with runtime budgets.

Each test checks one shipped guarantee — wire-format identity, aggregation
algebra, protocol convergence against a brute-force oracle, the bundled
reference scenarios, sweep trends, latency accounting, baseline ordering,
and bit-exact determinism — and asserts it completes within its budget.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from zonecast import (
    PRESETS,
    BlockState,
    ChannelConfig,
    GridConfig,
    ScenarioConfig,
    SensingMatrix,
    ZoneIndex,
    aggregate,
    build_world,
    bundled_scenario,
    decode,
    encode,
    load_scenario,
    perceive,
    run,
    sweep,
    sweep_csv,
)
from zonecast.protocol import init_vehicle

OUT = int(BlockState.OUT_OF_SENSING)
UNC = int(BlockState.UNCERTAIN)
FREE = int(BlockState.NO_OBJECT)
OBJ = int(BlockState.OBJECT)
Z = ZoneIndex(0, 0)


# ---------------------------------------------------------------------------
# 1. Wire codec: decode∘encode identity on 10k random matrices + uniforms.


def test_codec_identity_on_10k_matrices_and_uniform_patterns():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    batch = rng.integers(0, 4, size=(10_000, 20, 20), dtype=np.uint8)
    for cells in batch:
        mat = SensingMatrix(Z, cells)
        data = encode(mat)
        assert len(data) == 100
        assert decode(data, Z, 20, 20) == mat
    full = np.zeros((20, 20), dtype=np.uint8)
    assert encode(SensingMatrix(Z, full)) == b"\x00" * 100
    assert encode(SensingMatrix(Z, full + UNC)) == b"\x55" * 100
    assert encode(SensingMatrix(Z, full + FREE)) == b"\xaa" * 100
    assert encode(SensingMatrix(Z, full + OBJ)) == b"\xff" * 100
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. Aggregation algebra: exhaustive cell table + 10k random matrix pairs.


def merged_cell(cur: int, rec: int) -> int:
    """Independent statement of the per-cell merge rule."""
    if rec >> 1 == 0:
        return cur
    if cur >> 1 == 0:
        return rec
    return cur if cur == rec else UNC


def test_aggregation_algebra_exhaustive_and_random():
    t0 = time.perf_counter()

    def cell(cur, rec):
        out, _ = aggregate(
            SensingMatrix(Z, np.array([[cur] * 4], np.uint8)),
            SensingMatrix(Z, np.array([[rec] * 4], np.uint8)),
        )
        return int(out.cells[0, 0])

    for cur in range(4):
        for rec in range(4):
            got = cell(cur, rec)
            assert got == merged_cell(cur, rec)
            # No-information neutrality: an unsensed report changes nothing.
            if rec in (OUT, UNC):
                assert got == cur
            # Information monotonicity: a sensed report always leaves the
            # cell sensed unless the two sensed values contradict.
            if (rec >> 1) and not (cur >> 1):
                assert got == rec
            if (rec >> 1) and (cur >> 1):
                assert got == (cur if cur == rec else UNC)
        # Idempotence on the diagonal.
        assert cell(cur, cur) == cur
    # Conflict symmetry.
    assert cell(OBJ, FREE) == cell(FREE, OBJ) == UNC

    table = np.array(
        [[merged_cell(c, r) for r in range(4)] for c in range(4)], dtype=np.uint8
    )
    rng = np.random.default_rng(1)
    a = rng.integers(0, 4, size=(10_000, 5, 5), dtype=np.uint8)
    b = rng.integers(0, 4, size=(10_000, 5, 5), dtype=np.uint8)
    want = table[a, b]
    for i in range(10_000):
        out, changed = aggregate(SensingMatrix(Z, a[i]), SensingMatrix(Z, b[i]))
        assert np.array_equal(out.cells, want[i])
        assert changed == (not np.array_equal(a[i], want[i]))
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 3. Converged protocol runs equal the brute-force sensed-wins union of the
#    vehicles' initial matrices (conflict-free worlds, <=4 vehicles, 3x3
#    blocks, 200 seeds).


def _small_world(seed: int) -> ScenarioConfig:
    grid = GridConfig(zone_side=15.0, block_side=5.0)
    rng = np.random.default_rng([seed, 77])
    k = int(rng.integers(2, 5))
    pts: list[tuple[float, float]] = []
    while len(pts) < k:
        x, y = rng.uniform(0.5, 14.5, 2)
        if all(math.dist((x, y), q) >= 1.0 for q in pts):
            pts.append((float(x), float(y)))
    objs: list[tuple[tuple[float, float], float]] = []
    n_obj = int(rng.integers(0, 3))
    while len(objs) < n_obj:
        ox, oy = rng.uniform(1.0, 14.0, 2)
        r = float(rng.uniform(0.5, 1.5))
        if all(math.dist((ox, oy), p) >= r + 0.5 for p in pts):
            objs.append(((float(ox), float(oy)), r))
    return ScenarioConfig(
        grid=grid,
        channel=ChannelConfig(comm_range=50.0),
        sensing_range=25.0,
        vehicles=tuple((i + 1, p) for i, p in enumerate(pts)),
        vehicle_radius=0.0,
        objects=tuple(objs),
        initiators=(1,),
        seed=seed,
    )


def _union_oracle(initial: np.ndarray) -> np.ndarray:
    """Cell-wise union: any sensed value wins; else UNCERTAIN if anyone was
    blocked; else OUT_OF_SENSING."""
    sensed = (initial >> 1) == 1
    any_sensed = sensed.any(axis=0)
    mx = np.where(sensed, initial, 0).max(axis=0)
    mn = np.where(sensed, initial, 9).min(axis=0)
    assert np.all(mx[any_sensed] == mn[any_sensed])  # conflict-free world
    any_unc = (initial == UNC).any(axis=0)
    return np.where(any_sensed, mx, np.where(any_unc, UNC, OUT)).astype(np.uint8)


def test_converged_runs_equal_union_oracle():
    t0 = time.perf_counter()
    converged = 0
    occluded_worlds = 0
    for seed in range(200):
        cfg = _small_world(seed)
        zone, vehicles, world = build_world(cfg)
        initial = np.stack(
            [
                perceive(vid, pos, world, zone, cfg.grid, cfg.sensing_range).cells
                for vid, pos in vehicles
            ]
        )
        if (initial == UNC).any():
            occluded_worlds += 1
        union = _union_oracle(initial)
        metrics = run(cfg)
        if metrics.converged:
            converged += 1
            assert np.array_equal(metrics.final_matrix.cells, union)
    # Non-vacuity: most runs converge and a large share of worlds contain an
    # occlusion the exchange must actually resolve.
    assert converged >= 150
    assert occluded_worlds >= 60
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 4. Bundled three-vehicle line: convergence window and blind-spot resolution.


def test_line_scenario_convergence_and_blind_spot_resolution():
    t0 = time.perf_counter()
    cfg = load_scenario(bundled_scenario("fig5_line3"))
    metrics = run(cfg)
    again = run(cfg)
    assert metrics.trace == again.trace  # deterministic
    assert metrics.converged
    assert 4 <= metrics.quiescent_slot <= 6
    # Vehicle 1 starts with UNCERTAIN cells behind vehicle 2; after the
    # exchange every one of them is resolved to NO_OBJECT.
    zone, vehicles, world = build_world(cfg)
    v1 = init_vehicle(1, vehicles[0][1], world, zone, cfg.grid, cfg.sensing_range)
    blind = v1.matrix.cells == UNC
    assert blind.any()
    assert np.all(metrics.final_matrix.cells[blind] == FREE)
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 5. Bundled nine-vehicle grid: round counts for corner vs. middle initiator.


def test_grid9_round_counts():
    t0 = time.perf_counter()
    corner = run(load_scenario(bundled_scenario("grid9_corner")))
    middle = run(load_scenario(bundled_scenario("grid9_middle")))
    assert corner.converged and middle.converged
    assert 12 <= corner.quiescent_slot <= 18  # 15 +/- 3
    assert 14 <= middle.quiescent_slot <= 20  # 17 +/- 3
    # A middle start reaches everyone at least as fast as a corner start.
    assert middle.quiescent_slot >= corner.quiescent_slot - 1
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 6. Sweep trend: completion grows with vehicle count.


def test_sweep_latency_trend():
    t0 = time.perf_counter()
    preset = PRESETS["paper-fig7"]
    rows = sweep(
        replace(preset.base, mac_mode="l3"), list(preset.counts), preset.trials, preset.base.seed
    )
    counts = sorted({r["count"] for r in rows})
    means = [
        np.mean([r["quiescent_slot"] for r in rows if r["count"] == c and r["converged"]])
        for c in counts
    ]
    assert spearmanr(counts, means).statistic > 0.8
    max15 = max(r["quiescent_slot"] for r in rows if r["count"] == 15 and r["converged"])
    assert 20 <= max15 <= 32
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 7. Latency accounting: slots times 2 ms exactly; one exchange leg fits in
#    a single 2 ms slot.


def test_latency_accounting():
    cfg = load_scenario(bundled_scenario("fig5_line3"))
    metrics = run(cfg)
    assert metrics.latency_ms == metrics.quiescent_slot * 2.0

    two = ScenarioConfig(
        vehicle_radius=0.0,
        vehicles=((1, (40.0, 50.0)), (2, (55.0, 50.0))),
        initiators=(1,),
    )
    m = run(two)
    assert m.latency_ms == m.quiescent_slot * 2.0
    # The full 100-byte matrix reaches the neighbour in the very first slot:
    # one share leg costs one slot = 2 ms.
    assert "2:D1" in m.trace[0]
    assert two.slot_duration_ms <= 2.0


# ---------------------------------------------------------------------------
# 8. Baseline ordering: the slotted MAC never loses to the contention
#    baseline on completed runs, and the baseline's latency grows faster
#    with density. The 225-vehicle runs complete under the slot cap.


def _mean_latency(rows, count):
    vals = [r["latency_ms"] for r in rows if r["count"] == count and r["converged"]]
    return float(np.mean(vals)) if vals else None


def test_slotted_mac_beats_contention_baseline():
    t0 = time.perf_counter()
    for name, min_pairs in (("paper-fig8", 15), ("paper-fig9", 2)):
        preset = PRESETS[name]
        l3 = sweep(
            replace(preset.base, mac_mode="l3"),
            list(preset.counts),
            preset.trials,
            preset.base.seed,
        )
        cs = sweep(
            replace(preset.base, mac_mode="csma"),
            list(preset.counts),
            preset.trials,
            preset.base.seed,
        )
        both = [
            (a, b)
            for a, b in zip(l3, cs)
            if a["converged"] and b["converged"]
        ]
        assert len(both) >= min_pairs  # enough completed pairs to be meaningful
        for a, b in both:
            assert (a["count"], a["trial"]) == (b["count"], b["trial"])
            assert a["latency_ms"] <= b["latency_ms"]
        counts = sorted({r["count"] for r in l3})
        pairs = [
            (c, _mean_latency(l3, c), _mean_latency(cs, c))
            for c in counts
            if _mean_latency(l3, c) is not None and _mean_latency(cs, c) is not None
        ]
        xs = [c for c, _, _ in pairs]
        slope_l3 = np.polyfit(xs, [a for _, a, _ in pairs], 1)[0]
        slope_cs = np.polyfit(xs, [b for _, _, b in pairs], 1)[0]
        assert slope_cs > slope_l3
        if name == "paper-fig9":
            dense = [r for r in l3 if r["count"] == 225]
            assert dense and all(r["converged"] for r in dense)
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# 9. Determinism: identical seeds give byte-identical traces and CSV tables.


def test_seeded_reruns_are_byte_identical():
    cfg = load_scenario(bundled_scenario("fig5_line3"))
    a, b = run(cfg), run(cfg)
    assert "\n".join(a.trace).encode() == "\n".join(b.trace).encode()

    preset = PRESETS["paper-fig7"]
    base = replace(preset.base, mac_mode="l3")
    csv_a = sweep_csv(sweep(base, list(preset.counts), preset.trials, preset.base.seed))
    csv_b = sweep_csv(sweep(base, list(preset.counts), preset.trials, preset.base.seed))
    assert csv_a.encode() == csv_b.encode()
