"""One fresh benchmark process for one workload.

    python3 perfbench/worker.py setup   --workload W --seed N
    python3 perfbench/worker.py measure --workload W --seed N --seconds S --trace 0|1 [--spans F]

``setup`` imports zonecast, generates the workload's inputs and reports how
long that took. ``measure`` does the same, then runs batches back to back
(one client, closed loop) for about S seconds and checks every output. With
--trace 1 it spends half the time untraced and half traced and reports the
per-layer metrics instead. The result is one JSON object on the last line of
standard output. perfbench/run.py starts these processes with PYTHONPATH
pointing at the checkout's src/ and single-threaded BLAS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter


def layers(tracer, untraced, traced, checker) -> dict:
    """Per-layer metrics: counts from the first traced batch, which counts
    the leaf functions too, and times as medians over the other batches."""
    untraced_wall = statistics.median(b.wall_s for b in untraced)
    per_batch = []
    for b in traced:
        metrics = tracer.layer_metrics(b.tracer, b.wall_s)
        metrics["trace.overhead_pct"] = (b.wall_s / untraced_wall - 1.0) * 100.0
        per_batch.append(metrics)
        for problem in tracer.consistency_problems(b.tracer):
            checker.fail(1, "counter check: " + problem)
    timing = per_batch[1:]
    out = {}
    for name, unit in tracer.PER_LAYER:
        if unit in ("ms", "%"):
            out[name] = (statistics.median(b[name] for b in timing), unit)
            continue
        if name not in tracer.LEAF_METRICS and len({b[name] for b in per_batch}) > 1:
            checker.fail(1, f"{name} differs between batches: {[b[name] for b in per_batch]}")
        out[name] = (per_batch[0][name], unit)
    return out


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    # Set-up: importing the library and generating the inputs.
    t0 = perf_counter()
    import zonecast  # noqa: F401
    import workloads

    inputs = workloads.generate(args.workload, args.seed)
    setup_s = perf_counter() - t0
    scale = workloads.reference.NOMINAL_S / workloads.reference.seconds()
    result: dict = {
        "setup_s": setup_s,
        "scaled_setup_s": setup_s * scale,
        "zonecast": zonecast.__file__,
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    checker = workloads.Checker(args.workload, args.seed)
    checker.spot_check()
    if args.trace == 0:
        timed = workloads.run_batches(inputs, args.seconds, checker, scaled=True)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["walls_s"] = [b.wall_s for b in timed]
        result["runs_s"] = [dt for b in timed for dt in b.runs_s]
        result["scaled_walls_s"] = [b.scaled_wall_s for b in timed]
        result["scaled_runs_s"] = [dt for b in timed for dt in b.scaled_runs_s]
    else:
        import tracer

        untraced = workloads.run_batches(inputs, args.seconds / 2, checker)
        # Batch 0 also counts the leaf functions; the later batches give times.
        traced = workloads.run_batches(
            inputs, args.seconds / 2, checker, min_batches=2,
            make_tracer=lambda i: tracer.Tracer(count_leaves=i == 0),
        )
        if untraced and len(traced) >= 2:
            result["layers"] = layers(tracer, untraced, traced, checker)
            if args.spans:
                traced[-1].tracer.write(args.spans)
    checker.validate()
    if checker.first is not None:
        result["simulated"] = workloads.simulated_stats(checker.first)
    result.update(
        attempted=checker.attempted,
        failed=checker.failed,
        problems=checker.problems,
        machine=machine(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
