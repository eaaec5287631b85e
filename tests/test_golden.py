"""Golden outputs: digests of whole runs, pinned so that any change to the
channel, perception, protocol or MACs that alters a simulated result fails
here, not only in the benchmark.

A digest covers the run's outcome, its tx/rx counters, every trace line and
the final matrix bytes. The pinned values were recorded before the per-run
link table and the per-world occupancy mask existed, so they also prove that
both left every result byte-identical.
"""

import hashlib
from dataclasses import replace

import pytest

from zonecast import ChannelConfig, RunMetrics, ScenarioConfig, run
from zonecast.presets import PRESETS

FIG9 = PRESETS["paper-fig9"].base

# (mac, vehicle count, seed) -> digest, on the paper-fig9 base.
FIG9_DIGESTS = {
    ("l3", 25, 0): "b5e1895a53a08172",
    ("l3", 25, 1): "abf8e8163d3a758f",
    ("l3", 25, 2): "346b2c361a6895de",
    ("l3", 100, 0): "9038206a4827169e",
    ("l3", 100, 1): "c0845ac8f940cd60",
    ("l3", 100, 2): "0d34fa300464af5d",
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
