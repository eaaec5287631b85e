"""The benchmark's workloads: inputs generated from a seed, timed batches,
and the checks that every simulated output is correct.

A batch is the unit that repeats: the whole paper-fig7 sweep, or one run per
seeded placement for the dense and occluded workloads. Simulated results are
deterministic, so they are compared exactly, never timed.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional, Union

import numpy as np

import reference
from zonecast import engine, presets, sensing
from zonecast.engine import Placement, RunMetrics, ScenarioConfig

WORKLOADS = ("fig7-sweep", "dense-l3", "dense-csma", "occluded")

# Seeded placements per batch of the dense and occluded workloads. Run time
# varies from placement to placement; ten keep that within a few percent.
PLACEMENTS = 10
DENSE_COUNT = 225
OCCLUDED_COUNT = 100

DIGESTS_PATH = Path(__file__).with_name("digests.json")

UNCERTAIN = int(sensing.BlockState.UNCERTAIN)
OUT_OF_SENSING = int(sensing.BlockState.OUT_OF_SENSING)


@dataclass(frozen=True)
class SweepSpec:
    """The arguments of one sweep() call."""

    base: ScenarioConfig
    counts: tuple[int, ...]
    trials: int
    seed: int


Inputs = Union[SweepSpec, tuple[ScenarioConfig, ...]]


@dataclass
class Batch:
    wall_s: float
    runs: list[tuple[float, ScenarioConfig, RunMetrics]]  # (seconds, config, result)
    csv_text: Optional[str] = None
    # Per run: reference.NOMINAL_S / the reference loop's time around it, or
    # 1.0 where the batch was not scaled.
    scales: list[float] = field(default_factory=list)

    @property
    def scaled_wall_s(self) -> float:
        if self.csv_text is not None:  # the sweep is never scaled
            return self.wall_s
        return sum(dt * s for (dt, _, _), s in zip(self.runs, self.scales))

    @property
    def scaled_runs_s(self) -> list[float]:
        return [dt * s for (dt, _, _), s in zip(self.runs, self.scales)]


class Timed(NamedTuple):
    """What a batch leaves once checked: its times and its tracer."""

    wall_s: float
    runs_s: list[float]
    scaled_wall_s: float
    scaled_runs_s: list[float]
    tracer: object


def placement_seeds(seed: int) -> list[int]:
    """Per-placement config seeds, derived like sweep() derives sub-seeds."""
    return [seed * 1_000 + i for i in range(PLACEMENTS)]


def generate(name: str, seed: int) -> Inputs:
    """The inputs of workload ``name``; the same seed gives the same inputs."""
    if name == "fig7-sweep":
        preset = presets.PRESETS["paper-fig7"]
        return SweepSpec(preset.base, preset.counts, preset.trials, seed)
    if name in ("dense-l3", "dense-csma"):
        base = presets.PRESETS["paper-fig9"].base
        mac = "l3" if name == "dense-l3" else "csma"
        placement = replace(base.placement, count=DENSE_COUNT)
        return tuple(
            replace(base, placement=placement, seed=s, mac_mode=mac)
            for s in placement_seeds(seed)
        )
    if name == "occluded":
        return tuple(
            ScenarioConfig(placement=Placement(OCCLUDED_COUNT), seed=s)
            for s in placement_seeds(seed)
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def execute(inputs: Inputs, scaled: bool = False) -> Batch:
    """Run one batch through the public API, timing it and each run() call.

    Calls go through the ``zonecast.engine`` module attributes, so a tracer
    that has wrapped them sees every call. A batch of configs times only its
    runs, so its wall time is their sum. With ``scaled``, the reference loop
    runs between those runs, outside every timed span, and gives each run its
    scale. A sweep is never scaled: its runs happen inside one sweep() call,
    so the loop can only run around the whole sweep, and scales taken that
    far from the runs they correct added spread instead of removing it.
    """
    runs: list[tuple[float, ScenarioConfig, RunMetrics]] = []
    if isinstance(inputs, SweepSpec):
        inner = engine.run

        def timed_run(cfg: ScenarioConfig) -> RunMetrics:
            t0 = perf_counter()
            metrics = inner(cfg)
            runs.append((perf_counter() - t0, cfg, metrics))
            return metrics

        engine.run = timed_run
        try:
            t0 = perf_counter()
            rows = engine.sweep(inputs.base, list(inputs.counts), inputs.trials, inputs.seed)
            csv_text = engine.sweep_csv(rows)
            wall = perf_counter() - t0
        finally:
            engine.run = inner
        return Batch(wall, runs, csv_text, [1.0] * len(runs))
    ref = [reference.seconds()] if scaled else None
    for cfg in inputs:
        t0 = perf_counter()
        metrics = engine.run(cfg)
        runs.append((perf_counter() - t0, cfg, metrics))
        if scaled:
            ref.append(reference.seconds())
    scales = [_scale(a, b) for a, b in zip(ref, ref[1:])] if scaled else [1.0] * len(runs)
    return Batch(sum(dt for dt, _, _ in runs), runs, None, scales)


def _scale(before_s: float, after_s: float) -> float:
    return reference.NOMINAL_S / ((before_s + after_s) / 2)


def run_digest(m: RunMetrics) -> str:
    """Digest of everything a run reports: outcome, counters, trace, matrix."""
    h = hashlib.sha256()
    head = (
        m.converged,
        m.last_tx_slot,
        m.quiescent_slot,
        m.latency_ms,
        sorted(m.tx_slots.items()),
        sorted(m.rx_slots.items()),
        tuple(m.final_matrix.zone),
        m.final_matrix.cells.shape,
    )
    h.update(repr(head).encode())
    h.update("\n".join(m.trace).encode())
    h.update(m.final_matrix.cells.tobytes())
    return h.hexdigest()[:16]


def batch_digests(batch: Batch) -> list[str]:
    """One digest per run, plus the sweep CSV's digest for the sweep workload."""
    digests = [run_digest(m) for _, _, m in batch.runs]
    if batch.csv_text is not None:
        digests.append("csv:" + hashlib.sha256(batch.csv_text.encode()).hexdigest()[:16])
    return digests


def recorded() -> dict:
    with open(DIGESTS_PATH) as f:
        return json.load(f)


def recorded_digests(name: str, seed: int) -> Optional[list[str]]:
    """Digests recorded for this workload and seed, if the seed was recorded."""
    return recorded()["workloads"].get(name, {}).get(str(seed))


def spot_check_inputs(name: str) -> tuple[int, Inputs]:
    """A short slice of the default seed's inputs: the whole sweep, or the
    first two placements."""
    seed = recorded()["default_seed"]
    inputs = generate(name, seed)
    return seed, inputs if isinstance(inputs, SweepSpec) else inputs[:2]


def mismatches(got: list[str], want: list[str]) -> int:
    """Entries that differ, counting missing or extra entries as different."""
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


def union_oracle(cfg: ScenarioConfig) -> Optional[np.ndarray]:
    """The matrix a converged run must end with: cell-wise, any sensed value
    wins, else UNCERTAIN if anyone was blocked, else OUT_OF_SENSING. None when
    two vehicles sensed a cell differently, where no simple union exists."""
    zone, vehicles, world = engine.build_world(cfg)
    initial = np.stack(
        [
            sensing.perceive(vid, pos, world, zone, cfg.grid, cfg.sensing_range).cells
            for vid, pos in vehicles
        ]
    )
    sensed = (initial >> 1) == 1
    high = np.where(sensed, initial, 0).max(axis=0)
    low = np.where(sensed, initial, 3).min(axis=0)
    any_sensed = sensed.any(axis=0)
    if np.any(high[any_sensed] != low[any_sensed]):
        return None
    any_uncertain = (initial == UNCERTAIN).any(axis=0)
    return np.where(any_sensed, high, np.where(any_uncertain, UNCERTAIN, OUT_OF_SENSING))


def check_run(cfg: ScenarioConfig, m: RunMetrics) -> list[str]:
    """Invariants every run must satisfy; returns the violated ones."""
    problems = []
    if len(m.trace) != m.quiescent_slot:
        problems.append(f"seed {cfg.seed}: {len(m.trace)} trace lines for {m.quiescent_slot} slots")
    if not 0 <= m.last_tx_slot <= m.quiescent_slot:
        problems.append(f"seed {cfg.seed}: last_tx_slot {m.last_tx_slot} after quiescence")
    if cfg.mac_mode == "l3" and m.latency_ms != m.quiescent_slot * cfg.slot_duration_ms:
        problems.append(f"seed {cfg.seed}: latency {m.latency_ms} ms != slots x slot time")
    if m.converged:
        oracle = union_oracle(cfg)
        if oracle is not None and not np.array_equal(m.final_matrix.cells, oracle):
            problems.append(f"seed {cfg.seed}: converged matrix differs from the union oracle")
    return problems


class Checker:
    """Checks every batch one process runs and counts runs and failures.

    The first batch is compared with the digests recorded for this seed, when
    there are any; every later batch must repeat the first exactly.
    """

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.reference = recorded_digests(name, seed)
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)

    def batch(self, batch: Batch) -> None:
        digests = batch_digests(batch)
        if self.first is None:
            self.first = batch
            self.first_digests = digests
            self._compare(batch, digests, self.reference, "the recorded digests")
        else:
            self._compare(batch, digests, self.first_digests, "the first batch")

    def _compare(self, batch: Batch, got: list[str], want: Optional[list[str]], what: str) -> None:
        self.attempted += len(batch.runs)
        if want is not None:
            bad = min(mismatches(got, want), max(len(batch.runs), 1))
            if bad:
                self.fail(bad, f"{bad} outputs differ from {what}")

    def error(self) -> None:
        self.attempted += 1
        self.fail(1, "run raised:\n" + traceback.format_exc(limit=4))

    def spot_check(self) -> None:
        """Run a short slice of the default seed's inputs and compare it with
        its recorded digests. Every run does this first, whatever its seed,
        which also warms up every code path before timing starts."""
        seed, inputs = spot_check_inputs(self.name)
        try:
            batch = execute(inputs)
        except Exception:
            self.error()
            return
        got = batch_digests(batch)
        want = recorded_digests(self.name, seed)
        if batch.csv_text is None:
            want = want[: len(got)]
        self._compare(batch, got, want, f"the recorded digests of seed {seed}")

    def validate(self) -> None:
        """Per-run invariants and the union oracle, on the first batch."""
        if self.first is not None:
            for _, cfg, m in self.first.runs:
                for problem in check_run(cfg, m):
                    self.fail(1, problem)


def run_batches(
    inputs: Inputs,
    seconds: float,
    checker: Checker,
    min_batches: int = 1,
    make_tracer=None,
    scaled: bool = False,
) -> list[Timed]:
    """Run batches until the next one would end after ``seconds``, and at
    least ``min_batches``.

    ``make_tracer(i)``, if given, returns the tracer installed for batch i;
    ``scaled`` is passed to execute(). A batch that raises ends the loop.
    """
    out = []
    start = perf_counter()
    while True:
        tracer = None
        try:
            if make_tracer is None:
                batch = execute(inputs, scaled)
            else:
                with make_tracer(len(out)) as tracer:
                    batch = execute(inputs, scaled)
        except Exception:
            checker.error()
            break
        checker.batch(batch)
        out.append(Timed(
            batch.wall_s,
            [dt for dt, _, _ in batch.runs],
            batch.scaled_wall_s,
            batch.scaled_runs_s,
            tracer,
        ))
        elapsed = perf_counter() - start
        if len(out) >= min_batches and elapsed + batch.wall_s > seconds:
            break
    return out


def simulated_stats(batch: Batch) -> dict:
    """Simulated outcomes of one batch; exact, and identical in every batch."""
    results = [m for _, _, m in batch.runs]
    return {
        "runs": len(results),
        "converged": sum(m.converged for m in results),
        "stalled": sum(not m.converged for m in results),
        "slots": sum(m.quiescent_slot for m in results),
        "latency_ms_mean": sum(m.latency_ms for m in results) / len(results),
    }
