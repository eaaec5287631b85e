"""Layer tracing from outside the program.

The tracer replaces module attributes that callers look up at call time
(``zonecast.engine.resolve_slot``, ``zonecast.protocol.decode`` and so on)
with wrappers. A span wrapper records name, start, end, parent span and the
run it belongs to; a counting wrapper only counts calls, for functions
called too often to time. Spans are kept in flat arrays in memory and
written out at the end. Nothing inside ``zonecast`` changes.
"""

from __future__ import annotations

import gzip
import itertools
import json
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable

from zonecast import channel, engine, grid, protocol, sensing

# (module whose attribute is replaced, attribute, span name). Each attribute
# is replaced where its caller looks it up, so every call passes one wrapper.
SPANS = (
    (engine, "sweep", "engine.sweep"),
    (engine, "run", "engine.run"),
    (engine, "run_baseline", "engine.run_baseline"),
    (engine, "build_world", "engine.build_world"),
    (engine, "init_vehicle", "protocol.init_vehicle"),
    (engine, "on_slot_begin", "protocol.on_slot_begin"),
    (engine, "resolve_slot", "channel.resolve_slot"),
    (engine, "on_delivery", "protocol.on_delivery"),
    (engine, "is_globally_converged", "protocol.is_globally_converged"),
    (protocol, "perceive", "sensing.perceive"),
    (protocol, "encode", "sensing.encode"),
    (protocol, "decode", "sensing.decode"),
    (protocol, "aggregate", "sensing.aggregate"),
)

# Counted only: (modules that call it, attribute, owner module, counter name).
COUNTED = (
    ((engine, protocol, sensing, grid), "locate_zone", grid, "grid.locate_zone"),
    ((sensing,), "locate_block", grid, "grid.locate_block"),
    ((channel,), "received_power", channel, "channel.received_power"),
)

SPAN_NAMES = tuple(name for _, _, name in SPANS)
LEAF_METRICS = tuple(name + ".calls" for _, _, _, name in COUNTED)

# The per-layer metrics a traced run reports, with their units. Times are
# self times of one batch; counts are per batch and exact.
PER_LAYER = (
    ("channel.resolve_slot.calls", "count"),
    ("channel.resolve_slot.self_ms", "ms"),
    ("channel.received_power.calls", "count"),
    ("channel.tx_per_slot", "tx/slot"),
    ("channel.outcome.delivered", "count"),
    ("channel.outcome.collision", "count"),
    ("channel.outcome.silence", "count"),
    ("channel.capture_ratio", "ratio"),
    ("sensing.perceive.calls", "count"),
    ("sensing.perceive.self_ms", "ms"),
    ("sensing.encode.calls", "count"),
    ("sensing.encode.self_ms", "ms"),
    ("sensing.decode.calls", "count"),
    ("sensing.decode.self_ms", "ms"),
    ("sensing.aggregate.calls", "count"),
    ("sensing.aggregate.self_ms", "ms"),
    ("sensing.aggregate.changed_ratio", "ratio"),
    ("grid.locate_zone.calls", "count"),
    ("grid.locate_block.calls", "count"),
    ("protocol.init_vehicle.self_ms", "ms"),
    ("protocol.on_slot_begin.calls", "count"),
    ("protocol.on_slot_begin.self_ms", "ms"),
    ("protocol.on_delivery.calls", "count"),
    ("protocol.on_delivery.self_ms", "ms"),
    ("protocol.is_globally_converged.calls", "count"),
    ("protocol.is_globally_converged.self_ms", "ms"),
    ("engine.build_world.calls", "count"),
    ("engine.build_world.self_ms", "ms"),
    ("engine.run.calls", "count"),
    ("engine.run.self_ms", "ms"),
    ("engine.run_baseline.self_ms", "ms"),
    ("engine.sweep.self_ms", "ms"),
    ("engine.slots", "count"),
    ("sim.converged_runs", "count"),
    ("sim.stalled_runs", "count"),
    ("sim.latency_ms_mean", "sim_ms"),
    ("trace.wall_ms", "ms"),
    ("trace.residual_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """Records spans and counters while installed (use as a context manager).

    The counted functions run hundreds of thousands of times per batch, and
    even a counting wrapper inflates its caller's self time. With
    ``count_leaves=False`` they are left alone, for batches whose times are
    used; a separate batch with ``count_leaves=True`` gives their counts.
    """

    def __init__(self, count_leaves: bool = True) -> None:
        self.count_leaves = count_leaves
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._next_run = itertools.count().__next__
        self._ticks: dict[str, itertools.count] = {}
        self.counters: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.results: list = []  # (config, RunMetrics) of each engine.run span
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        observers: dict[str, Callable] = {
            "engine.run": self._observe_run,
            "protocol.on_slot_begin": self._observe_slot_begin,
            "channel.resolve_slot": self._observe_resolve,
            "sensing.aggregate": self._observe_aggregate,
        }
        for module, attr, name in SPANS:
            self._replace(module, attr, self._span(name, getattr(module, attr), observers.get(name)))
        if self.count_leaves:
            for callers, attr, owner, name in COUNTED:
                counted = self._count(name, getattr(owner, attr))
                for module in callers:
                    self._replace(module, attr, counted)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        for name, ticks in self._ticks.items():
            self.counters[name] = next(ticks)

    def _replace(self, module: object, attr: str, wrapper: Callable) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        name_id = SPAN_NAMES.index(name)
        new_run = name == "engine.run"
        stack, names, parents, runs = self._stack, self.name, self.parent, self.run
        starts, ends, errors, next_run = self.start, self.end, self.errors, self._next_run

        def traced(*args, **kwargs):
            i = len(names)
            p = stack[-1] if stack else -1
            names.append(name_id)
            parents.append(p)
            runs.append(next_run() if new_run else runs[p] if p >= 0 else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        tick = self._ticks.setdefault(name, itertools.count()).__next__

        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return counted

    # -- counters at the layer boundaries ---------------------------------

    def _observe_run(self, args, metrics) -> None:
        self.results.append((args[0], metrics))

    def _observe_slot_begin(self, args, tx) -> None:
        if tx is not None:
            self.counters["protocol.on_slot_begin.tx"] += 1

    def _observe_resolve(self, args, outcomes) -> None:
        c = self.counters
        c["channel.tx"] += len(args[0])
        for o in outcomes.values():
            c["channel.outcome." + o.kind] += 1

    def _observe_aggregate(self, args, result) -> None:
        if result[1]:
            self.counters["sensing.aggregate.changed"] += 1

    # -- summaries ---------------------------------------------------------

    def span_calls(self) -> Counter[str]:
        return Counter(SPAN_NAMES[i] for i in self.name)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time child spans cover."""
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        child = [0.0] * len(self.name)
        for i in range(len(self.name)):
            d = self.end[i] - self.start[i]
            total[SPAN_NAMES[self.name[i]]] += d
            if self.parent[i] >= 0:
                child[self.parent[i]] += d
        for i, c in enumerate(child):
            total[SPAN_NAMES[self.name[i]]] -= c
        return total

    def top_level_seconds(self) -> float:
        return sum(self.end[i] - self.start[i] for i in range(len(self.name)) if self.parent[i] < 0)

    def nesting_violations(self) -> int:
        """Spans that do not lie inside their parent or leave its run."""
        bad = 0
        for i in range(len(self.name)):
            p = self.parent[i]
            if p < 0:
                continue
            if not (self.start[p] <= self.start[i] <= self.end[i] <= self.end[p]):
                bad += 1
            elif SPAN_NAMES[self.name[i]] != "engine.run" and self.run[i] != self.run[p]:
                bad += 1
        return bad

    def write(self, path) -> None:
        """Write every span as one JSON array per line, times in microseconds
        from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({"fields": ["name", "run", "parent", "start_us", "end_us"]}) + "\n")
            for i in range(len(self.name)):
                f.write(
                    f'["{SPAN_NAMES[self.name[i]]}",{self.run[i]},{self.parent[i]},'
                    f"{(self.start[i] - t0) * 1e6:.1f},{(self.end[i] - t0) * 1e6:.1f}]\n"
                )


def layer_metrics(t: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced batch that took ``wall_s``, keyed
    by metric name; trace.overhead_pct needs an untraced batch and is added
    by the caller."""
    calls = t.span_calls()
    self_ms = {name: s * 1e3 for name, s in t.self_seconds().items()}
    c = t.counters
    delivered = c["channel.outcome.delivered"]
    collision = c["channel.outcome.collision"]
    results = [m for _, m in t.results]
    out = {
        "channel.resolve_slot.calls": calls["channel.resolve_slot"],
        "channel.resolve_slot.self_ms": self_ms["channel.resolve_slot"],
        "channel.received_power.calls": c["channel.received_power"],
        "channel.tx_per_slot": c["channel.tx"] / max(calls["channel.resolve_slot"], 1),
        "channel.outcome.delivered": delivered,
        "channel.outcome.collision": collision,
        "channel.outcome.silence": c["channel.outcome.silence"],
        "channel.capture_ratio": delivered / max(delivered + collision, 1),
        "sensing.aggregate.changed_ratio": (
            c["sensing.aggregate.changed"] / max(calls["sensing.aggregate"], 1)
        ),
        "grid.locate_zone.calls": c["grid.locate_zone"],
        "grid.locate_block.calls": c["grid.locate_block"],
        "engine.run.calls": calls["engine.run"],
        "engine.slots": sum(m.quiescent_slot for m in results),
        "sim.converged_runs": sum(m.converged for m in results),
        "sim.stalled_runs": sum(not m.converged for m in results),
        "sim.latency_ms_mean": sum(m.latency_ms for m in results) / max(len(results), 1),
        "trace.wall_ms": wall_s * 1e3,
        "trace.residual_ms": (wall_s - t.top_level_seconds()) * 1e3,
    }
    for name in SPAN_NAMES:
        out[name + ".calls"] = calls[name]
        out[name + ".self_ms"] = self_ms[name]
    return out


def consistency_problems(t: Tracer) -> list[str]:
    """Cross-checks between counters taken at different layer boundaries."""
    calls = t.span_calls()
    c = t.counters
    results = [m for _, m in t.results]
    slots = sum(m.quiescent_slot for m in results)
    problems = []

    def expect(label: str, got: int, want: int) -> None:
        if got != want:
            problems.append(f"{label}: {got} != {want}")

    if calls["engine.run_baseline"] == 0:  # slotted MAC: every slot is resolved
        expect("delivered outcomes vs on_delivery calls",
               c["channel.outcome.delivered"], calls["protocol.on_delivery"])
        expect("transmissions resolved vs sent by on_slot_begin",
               c["channel.tx"], c["protocol.on_slot_begin.tx"])
        expect("resolve_slot calls vs engine.slots", calls["channel.resolve_slot"], slots)
    expect("decode calls vs aggregate calls + protocol errors",
           calls["sensing.decode"], calls["sensing.aggregate"] + t.errors["sensing.decode"])
    expect("engine.slots vs trace lines", slots, sum(len(m.trace) for m in results))
    expect("engine.run spans vs results", calls["engine.run"], len(results))
    expect("spans outside their parent", t.nesting_violations(), 0)
    return problems
