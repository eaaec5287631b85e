"""Tests for the contention-MAC baseline (mac_mode='csma')."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zonecast import (
    ChannelConfig,
    CsmaConfig,
    Placement,
    ScenarioConfig,
    run,
)
from zonecast.engine import _backoffs, run_baseline

ROUND_RE = re.compile(r"^round \d+ \| tx (-|\d+(,\d+)*) \| .+$")


def two_vehicle_cfg(**over) -> ScenarioConfig:
    base = dict(
        vehicle_radius=0.0,
        vehicles=((1, (40.0, 50.0)), (2, (55.0, 50.0))),
        initiators=(1,),
        mac_mode="csma",
    )
    base.update(over)
    return ScenarioConfig(**base)


def test_two_vehicle_csma_converges():
    m = run_baseline(two_vehicle_cfg())
    assert m.converged
    assert m.trace[-1].endswith("| tx - | idle")
    for line in m.trace:
        assert ROUND_RE.match(line), line
    # Same exchange as the slotted MAC: 1 -> 2, 2 -> 1, 1 -> 2, then silence.
    assert m.tx_slots == {1: 2, 2: 1}
    assert m.rx_slots == {1: 1, 2: 2}
    assert m.quiescent_slot == 4


def test_csma_latency_adds_backoff_on_top_of_slots():
    # With zero-width micro-slots the latency collapses to rounds * slot time;
    # real micro-slots can only add to it. The same seed draws the same
    # backoffs, so the round structure is identical.
    free = run_baseline(two_vehicle_cfg(csma=CsmaConfig(micro_slot_us=0.0)))
    paid = run_baseline(two_vehicle_cfg(csma=CsmaConfig(micro_slot_us=1000.0)))
    assert free.quiescent_slot == paid.quiescent_slot
    assert free.latency_ms == pytest.approx(free.quiescent_slot * 2.0)
    assert paid.latency_ms >= free.latency_ms


def test_run_dispatches_on_mac_mode():
    m = run(two_vehicle_cfg())
    assert m.trace and m.trace[0].startswith("round 1 | tx ")


def test_forced_collision_retries_and_stalls():
    # cw_min = cw_max = 1 pins every backoff draw to 0, so two armed vehicles
    # in range collide every round, keep retrying, and never deliver anything.
    cfg = two_vehicle_cfg(
        initiators=(1, 2),
        csma=CsmaConfig(cw_min=1, cw_max=1),
        max_slots=5,
    )
    m = run_baseline(cfg)
    assert not m.converged
    assert m.trace == [f"round {i} | tx 1,2 | -" for i in range(1, 6)]
    assert m.tx_slots == {1: 5, 2: 5}
    assert m.rx_slots == {1: 0, 2: 0}


@pytest.mark.parametrize(
    "vehicles, channel, csma, initiators, bystander",
    [
        # cw pinned to 1 draws 0 for both initiators, all in range.
        pytest.param(
            ((1, (40.0, 50.0)), (2, (50.0, 50.0)), (3, (45.0, 60.0))),
            ChannelConfig(),
            CsmaConfig(cw_min=1, cw_max=1),
            (1, 2),
            3,
            id="equal-draws",
        ),
        # Hidden terminals: the ends are 80 m apart, out of each other's
        # range, so neither defers to the other whatever they draw.
        pytest.param(
            ((1, (10.0, 50.0)), (2, (50.0, 50.0)), (3, (90.0, 50.0))),
            ChannelConfig(comm_range=50.0),
            CsmaConfig(),
            (1, 3),
            2,
            id="hidden-terminal",
        ),
    ],
)
def test_bystander_sees_collision_not_delivery(vehicles, channel, csma, initiators, bystander):
    for seed in range(6):
        cfg = ScenarioConfig(
            channel=channel,
            vehicle_radius=0.0,
            vehicles=vehicles,
            initiators=initiators,
            mac_mode="csma",
            csma=csma,
            max_slots=3,
            seed=seed,
        )
        m = run_baseline(cfg)
        head, tx, heard = m.trace[0].split(" | ")
        assert head == "round 1"
        assert set(tx.removeprefix("tx ").split(",")) == {str(i) for i in initiators}
        assert heard == f"{bystander}:C"
        assert m.rx_slots[bystander] == 0  # a collision is not a reception


def test_carrier_sense_allows_at_most_one_in_range_transmitter():
    # Whenever backoff draws differ, carrier sense must leave a sole
    # transmitter among two armed in-range vehicles; equal draws collide.
    for seed in range(12):
        m = run_baseline(two_vehicle_cfg(initiators=(1, 2), seed=seed))
        first = m.trace[0]
        txs = first.split("|")[1].strip()[3:].split(",")
        assert set(txs) <= {"1", "2"} and txs
        if len(txs) == 1:
            other = ({"1", "2"} - set(txs)).pop()
            assert f"{other}:D{txs[0]}" in first


def test_csma_is_deterministic():
    cfg = ScenarioConfig(
        channel=ChannelConfig(comm_range=30.0),
        vehicle_radius=0.0,
        placement=Placement(count=6),
        initiators=(1,),
        mac_mode="csma",
        seed=4,
    )
    a, b = run_baseline(cfg), run_baseline(cfg)
    assert a.trace == b.trace
    assert a.latency_ms == b.latency_ms


def test_dense_csma_terminates_cleanly():
    cfg = ScenarioConfig(
        channel=ChannelConfig(comm_range=35.0),
        vehicle_radius=0.0,
        placement=Placement(count=10),
        initiators=(1,),
        mac_mode="csma",
        seed=6,
    )
    m = run_baseline(cfg)
    for line in m.trace:
        assert ROUND_RE.match(line), line
    if m.converged:
        assert m.trace[-1].endswith("idle")
    assert m.latency_ms >= m.quiescent_slot * cfg.slot_duration_ms - 1e-9


WINDOWS = st.one_of(
    st.integers(1, 2**11),
    st.integers(1, 2**63),
    st.sampled_from([2**32 - 1, 2**32, 2**32 + 1, 2**53 + 1, 2**63 - 1, 2**63]),
)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), cws=st.lists(WINDOWS, min_size=1, max_size=12))
@example(seed=0, cws=[2**32 - 1, 2**32, 2**32 + 1, 2**63])
@example(seed=1, cws=[15, 2**63, 1, 2**63 - 1, 31])
def test_one_backoff_call_draws_the_per_contender_stream(seed, cws):
    # Windows are Python ints up to cw_max = 2**63, past int64; 1 draws
    # nothing from the stream, and above 2**32 numpy switches to 64-bit draws.
    one, each = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _backoffs(one, cws) == [int(each.integers(0, cw)) for cw in cws]
    assert one.bit_generator.state == each.bit_generator.state
