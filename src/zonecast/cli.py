"""Command-line front end.

    zonecast run --scenario fig5.scenario --out results/ --trace
    zonecast sweep --preset paper-fig7 --out results/
    zonecast sweep --counts 3,9,15 --trials 5 --seed 1 --out results/
    zonecast dump-matrix --scenario fig5.scenario --vehicle 1

Exit codes: 0 converged, 1 configuration/usage error, 2 non-convergence.
A usage or configuration error, an unreadable scenario or an unwritable --out
exits 1 with ``error: ...`` and no traceback, and writes nothing.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import NoReturn, Optional

from .engine import ConfigError, ScenarioConfig, build_world, run, sweep, sweep_csv
from .presets import PRESETS, SweepPreset
from .scenario import load_scenario
from .sensing import format_matrix, perceive


def _write(out: str, files: dict[str, str]) -> None:
    """Create ``out`` and write each named file into it; the CLI's one writer."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (Path(out) / name).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write to {out}: {exc}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.scenario)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.mac is not None:
        cfg = replace(cfg, mac_mode=args.mac)
    m = run(cfg)
    latency = round(m.latency_ms, 6)
    lines = {
        "metrics.csv": [
            "mac,seed,count,converged,last_tx_slot,quiescent_slot,latency_ms",
            f"{cfg.mac_mode},{cfg.seed},{len(m.tx_slots)},{m.converged},"
            f"{m.last_tx_slot},{m.quiescent_slot},{latency}",
        ],
        "vehicles.csv": ["vehicle,tx_slots,rx_slots"]
        + [f"{vid},{m.tx_slots[vid]},{m.rx_slots[vid]}" for vid in sorted(m.tx_slots)],
        "final_matrix.txt": [format_matrix(m.final_matrix)],
    }
    if args.trace:
        lines["trace.txt"] = m.trace
    _write(args.out, {name: "".join(row + "\n" for row in rows) for name, rows in lines.items()})
    print(
        f"converged={m.converged} last_tx_slot={m.last_tx_slot} "
        f"quiescent_slot={m.quiescent_slot} latency_ms={latency}"
    )
    return 0 if m.converged else 2


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.preset is not None:
        fixed = {"--counts": args.counts, "--scenario": args.scenario, "--mac": args.mac}
        clash = [flag for flag, value in fixed.items() if value is not None]
        if clash:
            raise ConfigError(f"--preset {args.preset} fixes {', '.join(clash)}; drop them")
        plan = PRESETS[args.preset]
    elif not args.counts:
        raise ConfigError("sweep needs --preset or a non-empty --counts")
    else:
        base = load_scenario(args.scenario) if args.scenario else ScenarioConfig()
        plan = SweepPreset(tuple(args.counts), 20, base, (args.mac or base.mac_mode,))
    trials = plan.trials if args.trials is None else args.trials
    seed = plan.base.seed if args.seed is None else args.seed
    runs = {
        mode: sweep(replace(plan.base, mac_mode=mode), list(plan.counts), trials, seed)
        for mode in plan.macs
    }
    names = {mode: "sweep.csv" if len(runs) == 1 else f"sweep_{mode}.csv" for mode in runs}
    _write(args.out, {names[mode]: sweep_csv(rows) for mode, rows in runs.items()})
    for mode, rows in runs.items():
        print(f"wrote {Path(args.out) / names[mode]} ({len(rows)} runs)")
    return 0 if all(r["converged"] for rows in runs.values() for r in rows) else 2


def cmd_dump_matrix(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.scenario)
    zone, vehicles, world = build_world(cfg)
    for vid, pos in vehicles:
        if vid == args.vehicle:
            print(format_matrix(perceive(vid, pos, world, zone, cfg.grid, cfg.sensing_range)))
            return 0
    raise ConfigError(f"no vehicle with id {args.vehicle}")


def _parse_counts(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad counts list {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigErrors; subparsers inherit the class."""
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run seeded random-placement sweeps")
    p_sweep.add_argument("--preset", choices=sorted(PRESETS), help="bundled experiment preset")
    p_sweep.add_argument("--counts", type=_parse_counts, help="vehicle counts, e.g. 3,9,15")
    p_sweep.add_argument("--trials", type=int, default=None, help="trials per count")
    p_sweep.add_argument(
        "--seed", type=int, default=None,
        help="master seed (default: the preset/base scenario seed)",
    )
    p_sweep.add_argument(
        "--mac", choices=("l3", "csma"), help="MAC mode (default: the base scenario's mac_mode)"
    )
    p_sweep.add_argument("--scenario", default=None, help="base scenario for sweeps")
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_dump = sub.add_parser("dump-matrix", help="print a vehicle's initial matrix")
    p_dump.add_argument("--scenario", required=True)
    p_dump.add_argument("--vehicle", type=int, required=True)
    p_dump.set_defaults(func=cmd_dump_matrix)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
