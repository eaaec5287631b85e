"""Command-line front end.

    zonecast run --scenario fig5.scenario --out results/ --trace
    zonecast sweep --preset paper-fig7 --out results/
    zonecast sweep --counts 3,9,15 --trials 5 --seed 1 --out results/
    zonecast dump-matrix --scenario fig5.scenario --vehicle 1

Exit codes: 0 converged, 1 configuration/usage error, 2 non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .engine import ConfigError, RunMetrics, ScenarioConfig, build_world, run, sweep, sweep_csv
from .presets import PRESETS
from .protocol import init_vehicle
from .scenario import load_scenario
from .sensing import format_matrix


def _write_metrics(out_dir: Path, cfg: ScenarioConfig, metrics: RunMetrics) -> None:
    count = len(metrics.tx_slots)
    lines = [
        "mac,seed,count,converged,last_tx_slot,quiescent_slot,latency_ms",
        f"{cfg.mac_mode},{cfg.seed},{count},{metrics.converged},"
        f"{metrics.last_tx_slot},{metrics.quiescent_slot},{round(metrics.latency_ms, 6)}",
    ]
    (out_dir / "metrics.csv").write_text("\n".join(lines) + "\n")
    rows = ["vehicle,tx_slots,rx_slots"]
    for vid in sorted(metrics.tx_slots):
        rows.append(f"{vid},{metrics.tx_slots[vid]},{metrics.rx_slots[vid]}")
    (out_dir / "vehicles.csv").write_text("\n".join(rows) + "\n")
    (out_dir / "final_matrix.txt").write_text(format_matrix(metrics.final_matrix) + "\n")


def cmd_run(
    scenario_path: str,
    out_dir: str,
    seed: Optional[int] = None,
    trace: bool = False,
    mac: Optional[str] = None,
) -> int:
    cfg = load_scenario(scenario_path)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if mac is not None:
        cfg = replace(cfg, mac_mode=mac)
    metrics = run(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_metrics(out, cfg, metrics)
    if trace:
        (out / "trace.txt").write_text("\n".join(metrics.trace) + "\n")
    print(
        f"converged={metrics.converged} last_tx_slot={metrics.last_tx_slot} "
        f"quiescent_slot={metrics.quiescent_slot} latency_ms={round(metrics.latency_ms, 6)}"
    )
    return 0 if metrics.converged else 2


def cmd_sweep(
    out_dir: str,
    preset: Optional[str] = None,
    counts: Optional[list[int]] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    mac: Optional[str] = None,
    scenario_path: Optional[str] = None,
) -> int:
    if preset is not None:
        fixed = {"--counts": counts, "--scenario": scenario_path, "--mac": mac}
        clash = [flag for flag, value in fixed.items() if value is not None]
        if clash:
            raise ConfigError(f"--preset {preset} fixes {', '.join(clash)}; drop them")
        chosen = PRESETS[preset]
        base, sweep_counts, macs = chosen.base, list(chosen.counts), chosen.macs
        sweep_trials = trials if trials is not None else chosen.trials
    elif not counts:
        raise ConfigError("sweep needs --preset or a non-empty --counts")
    else:
        base = load_scenario(scenario_path) if scenario_path else ScenarioConfig()
        sweep_counts, macs = counts, (mac or "l3",)
        sweep_trials = trials if trials is not None else 20
    master_seed = seed if seed is not None else base.seed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_converged = True
    for mode in macs:
        rows = sweep(replace(base, mac_mode=mode), sweep_counts, sweep_trials, master_seed)
        all_converged &= all(r["converged"] for r in rows)
        name = "sweep.csv" if len(macs) == 1 else f"sweep_{mode}.csv"
        (out / name).write_text(sweep_csv(rows))
        print(f"wrote {out / name} ({len(rows)} runs)")
    return 0 if all_converged else 2


def cmd_dump_matrix(scenario_path: str, vehicle_id: int) -> int:
    cfg = load_scenario(scenario_path)
    _, vehicles, world = build_world(cfg)
    for vid, pos in vehicles:
        if vid == vehicle_id:
            state = init_vehicle(vid, pos, world, cfg.grid, cfg.sensing_range)
            print(format_matrix(state.matrix))
            return 0
    raise ConfigError(f"no vehicle with id {vehicle_id}")


def _parse_counts(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad counts list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonecast",
        description="Simulate slotted broadcast sharing of zone sensing matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single scenario")
    p_run.add_argument("--scenario", required=True, help="scenario file path")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--trace", action="store_true", help="also write trace.txt")
    p_run.add_argument("--mac", choices=("l3", "csma"), default=None, help="override MAC mode")

    p_sweep = sub.add_parser("sweep", help="run seeded random-placement sweeps")
    p_sweep.add_argument("--preset", choices=sorted(PRESETS), help="bundled experiment preset")
    p_sweep.add_argument("--counts", type=_parse_counts, help="vehicle counts, e.g. 3,9,15")
    p_sweep.add_argument("--trials", type=int, default=None, help="trials per count")
    p_sweep.add_argument(
        "--seed", type=int, default=None,
        help="master seed (default: the preset/base scenario seed)",
    )
    p_sweep.add_argument("--mac", choices=("l3", "csma"), help="MAC mode (default: l3)")
    p_sweep.add_argument("--scenario", default=None, help="base scenario for sweeps")
    p_sweep.add_argument("--out", default=".", help="output directory")

    p_dump = sub.add_parser("dump-matrix", help="print a vehicle's initial matrix")
    p_dump.add_argument("--scenario", required=True)
    p_dump.add_argument("--vehicle", type=int, required=True)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.scenario, args.out, args.seed, args.trace, args.mac)
        if args.command == "sweep":
            return cmd_sweep(
                args.out, args.preset, args.counts, args.trials, args.seed, args.mac, args.scenario
            )
        return cmd_dump_matrix(args.scenario, args.vehicle)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
