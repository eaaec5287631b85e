"""Checks of the benchmark itself: the tracer's counters agree with each
other, the output gate catches wrong outputs, and the metric tables agree
with BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

import tracer
import workloads
from zonecast import channel, engine, grid, presets, protocol, sensing

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

SMALL_SWEEP = workloads.SweepSpec(presets.PRESETS["paper-fig7"].base, (3, 6, 9), 4, 42)


def small_dense(mac: str) -> tuple:
    base = presets.PRESETS["paper-fig9"].base
    placement = replace(base.placement, count=40)
    return tuple(replace(base, placement=placement, seed=s, mac_mode=mac) for s in (1, 2))


SMALL_OCCLUDED = tuple(
    engine.ScenarioConfig(placement=engine.Placement(12), seed=s) for s in (1, 2)
)


def traced(inputs, count_leaves=True):
    with tracer.Tracer(count_leaves=count_leaves) as t:
        batch = workloads.execute(inputs)
    return t, batch


@pytest.mark.parametrize(
    "inputs",
    [SMALL_SWEEP, small_dense("l3"), small_dense("csma"), SMALL_OCCLUDED],
    ids=["sweep", "dense-l3", "dense-csma", "occluded"],
)
def test_counters_agree_on_traced_output(inputs):
    t, batch = traced(inputs)
    assert tracer.consistency_problems(t) == []
    metrics = tracer.layer_metrics(t, batch.wall_s)
    assert metrics["engine.run.calls"] == len(batch.runs)
    assert metrics["sensing.perceive.calls"] > 0
    assert metrics["grid.locate_zone.calls"] > 0
    assert metrics["trace.residual_ms"] >= 0
    self_ms = sum(metrics[name + ".self_ms"] for name in tracer.SPAN_NAMES)
    assert self_ms + metrics["trace.residual_ms"] == pytest.approx(metrics["trace.wall_ms"])


def test_slotted_and_csma_counters_take_their_own_paths():
    slotted, _ = traced(small_dense("l3"))
    csma, _ = traced(small_dense("csma"))
    assert slotted.span_calls()["channel.resolve_slot"] > 0
    assert slotted.counters["channel.received_power"] > 0
    assert slotted.span_calls()["engine.run_baseline"] == 0
    assert csma.span_calls()["channel.resolve_slot"] == 0
    assert csma.span_calls()["engine.run_baseline"] == 2


def test_consistency_checks_catch_broken_counters():
    t, _ = traced(small_dense("l3"))
    t.counters["channel.outcome.delivered"] += 1
    assert any("on_delivery" in p for p in tracer.consistency_problems(t))

    t, _ = traced(small_dense("l3"))
    child = next(i for i in range(len(t.name)) if t.parent[i] >= 0)
    t.end[child] = t.end[t.parent[child]] + 1.0
    assert any("outside their parent" in p for p in tracer.consistency_problems(t))


def test_leaf_counters_are_optional_and_span_counts_do_not_change():
    with_leaves, _ = traced(small_dense("l3"))
    without, _ = traced(small_dense("l3"), count_leaves=False)
    assert without.counters["grid.locate_zone"] == 0
    assert with_leaves.span_calls() == without.span_calls()


def test_tracer_restores_every_attribute():
    modules = (engine, protocol, sensing, grid, channel)
    before = {(m, a): getattr(m, a) for m in modules for a in dir(m)}
    traced(SMALL_OCCLUDED)
    assert {(m, a): getattr(m, a) for m, a in before} == before


def test_tracing_does_not_change_outputs():
    plain = workloads.execute(SMALL_SWEEP)
    _, batch = traced(SMALL_SWEEP)
    assert workloads.batch_digests(batch) == workloads.batch_digests(plain)


def test_recorded_digests_match_at_the_default_seed():
    recorded = json.loads(workloads.DIGESTS_PATH.read_text())
    seed = recorded["default_seed"]
    batch = workloads.execute(workloads.generate("fig7-sweep", seed))
    assert workloads.batch_digests(batch) == workloads.recorded_digests("fig7-sweep", seed)


def test_gate_flags_wrong_outputs():
    batch = workloads.execute(small_dense("l3"))
    cfg, m = next((cfg, m) for _, cfg, m in batch.runs if m.converged)
    assert workloads.check_run(cfg, m) == []
    digests = workloads.batch_digests(batch)

    cells = m.final_matrix.cells
    cells[0, 0] ^= 1
    assert any("union oracle" in p for p in workloads.check_run(cfg, m))
    assert workloads.mismatches(workloads.batch_digests(batch), digests) == 1
    cells[0, 0] ^= 1

    m.latency_ms += 2.0
    assert any("latency" in p for p in workloads.check_run(cfg, m))
    m.trace.append("slot 999 | tx - |")
    assert any("trace lines" in p for p in workloads.check_run(cfg, m))


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 5) == workloads.generate(name, 5)
        assert workloads.generate(name, 5) != workloads.generate(name, 6)


def test_metric_tables_match_benchmark_json():
    bench = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "run_ms_p50", "run_ms_p90", "setup_s", "peak_rss_mb"
    }



def test_only_batches_of_configs_are_scaled():
    sweep = workloads.execute(SMALL_SWEEP, scaled=True)
    assert sweep.scales == [1.0] * len(sweep.runs)
    assert sweep.scaled_wall_s == sweep.wall_s
    configs = workloads.execute(SMALL_OCCLUDED, scaled=True)
    assert len(configs.scales) == len(configs.runs)
    assert all(s > 0 for s in configs.scales)
    assert configs.scaled_wall_s == pytest.approx(sum(configs.scaled_runs_s))
    unscaled = workloads.execute(SMALL_OCCLUDED)
    assert workloads.batch_digests(configs) == workloads.batch_digests(unscaled)
