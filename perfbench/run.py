"""zonecast benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from src/.
NAME is one of fig7-sweep, dense-l3, dense-csma, occluded, or ``all``.

With --trace 0 it measures set-up in several fresh processes, then runs the
workload in one more fresh process for about S seconds and prints the
end-to-end metrics. With --trace 1 it prints the per-layer metrics of a
traced run instead and writes its spans under .perfbench-out/. Every output
is checked; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only if every run's output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
SPANS_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("fig7-sweep", "dense-l3", "dense-csma", "occluded")
SETUP_PROBES = 4  # set-up-only processes; the measuring process adds one more
DEADLINE_S = 170.0  # per workload, including set-up probes


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def call_worker(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args[:3]} did not finish in time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker {args[:3]} failed:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["zonecast"]).resolve().is_relative_to(ROOT / "src"):
        raise WorkerError(f"zonecast imported from {result['zonecast']}, not from src/")
    return result


def times(walls_s: list[float], runs_s: list[float]) -> dict:
    runs_ms = [s * 1e3 for s in runs_s]
    return {
        "wall_s": (statistics.median(walls_s), "s"),
        "run_ms_p50": (statistics.median(runs_ms), "ms"),
        "run_ms_p90": (statistics.quantiles(runs_ms, n=10, method="inclusive")[-1], "ms"),
    }


def end_to_end(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", name, "--seed", str(seed)]
    setups = [call_worker(["setup", *common], deadline) for _ in range(SETUP_PROBES)]
    res = call_worker(["measure", *common, "--seconds", str(seconds), "--trace", "0"], deadline)
    setups.append(res)
    if len(res["runs_s"]) < 2:
        raise WorkerError(f"too few timed runs: {res['problems']}")
    metrics = {
        **times(res["scaled_walls_s"], res["scaled_runs_s"]),
        "setup_s": (statistics.median(p["scaled_setup_s"] for p in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    runs_ms = [s * 1e3 for s in res["scaled_runs_s"]]
    res["samples"] = {
        "batches": len(res["walls_s"]),
        "runs": len(runs_ms),
        "runs_beyond_p90": sum(v > metrics["run_ms_p90"][0] for v in runs_ms),
        "setup_processes": len(setups),
    }
    res["unscaled"] = {k: v for k, (v, _) in times(res["walls_s"], res["runs_s"]).items()}
    res["unscaled"]["setup_s"] = statistics.median(p["setup_s"] for p in setups)
    return res, metrics


def per_layer(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
    args = ["measure", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1", "--spans", str(spans)]
    res = call_worker(args, deadline)
    if "layers" not in res:
        raise WorkerError(f"too few traced batches: {res['problems']}")
    res["spans_file"] = str(spans.relative_to(ROOT))
    return res, {k: tuple(v) for k, v in res.pop("layers").items()}


def bench(name: str, seed: int, seconds: float, trace: int) -> bool:
    deadline = monotonic() + DEADLINE_S
    measure = per_layer if trace else end_to_end
    res, metrics = measure(name, seed, seconds, deadline)
    for key, (value, unit) in metrics.items():
        print(f"{name:>10}  {key:<40} {value:>14.6g} {unit}")
    keys = ("samples", "unscaled", "simulated", "machine", "problems", "spans_file")
    info = {k: res[k] for k in keys if k in res}
    print(json.dumps({"workload": name, "seed": seed, **info}))
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "zonecast" / "__init__.py").is_file():
        print(f"no zonecast source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            ok = bench(name, args.seed, args.seconds, args.trace) and ok
        except WorkerError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
