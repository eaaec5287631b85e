"""End-to-end tests for the zonecast command-line interface."""

import warnings

import pytest

from zonecast import (
    ChannelConfig,
    ScenarioConfig,
    bundled_scenario,
    save_scenario,
)
from zonecast.cli import main

LINE3 = str(bundled_scenario("fig5_line3"))


def test_run_writes_metrics_and_exits_zero(tmp_path, capsys):
    code = main(["run", "--scenario", LINE3, "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    assert "latency_ms=12.0" in out
    metrics = (tmp_path / "metrics.csv").read_text().splitlines()
    assert metrics == [
        "mac,seed,count,converged,last_tx_slot,quiescent_slot,latency_ms",
        "l3,0,3,True,5,6,12.0",
    ]
    vehicles = (tmp_path / "vehicles.csv").read_text().splitlines()
    assert vehicles == [
        "vehicle,tx_slots,rx_slots",
        "1,3,2",
        "2,2,3",
        "3,2,3",
    ]
    grid_rows = (tmp_path / "final_matrix.txt").read_text().splitlines()
    assert len(grid_rows) == 20
    assert all(len(row.split()) == 20 for row in grid_rows)


def test_run_trace_flag_writes_trace(tmp_path):
    main(["run", "--scenario", LINE3, "--out", str(tmp_path), "--trace"])
    trace = (tmp_path / "trace.txt").read_text().splitlines()
    assert trace[0] == "slot 1 | tx 1 | 1:S 2:D1 3:D1"
    assert len(trace) == 6


def test_run_artifacts_are_byte_identical_across_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", "--scenario", LINE3, "--out", str(out), "--trace"]) == 0
    for name in ("metrics.csv", "vehicles.csv", "final_matrix.txt", "trace.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_missing_scenario_exits_one(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "nope.scn"), "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_colocated_vehicles_is_a_config_error(tmp_path, capsys):
    cfg = ScenarioConfig(vehicles=((1, (50.0, 50.0)), (2, (60.0, 50.0)), (3, (50.0, 50.0))))
    path = tmp_path / "colocated.scenario"
    save_scenario(cfg, path)
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: vehicles 1 and 3 share position" in err
    assert "Traceback" not in err


def test_run_bad_csma_window_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cw0.scenario"
    path.write_text("vehicles: [{id: 1, pos: [10, 10]}]\nmac_mode: csma\ncsma: {cw_min: 0}\n")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "cw_min must be >= 1" in err
    assert "Traceback" not in err


def test_run_empty_vehicle_list_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "empty.scenario"
    path.write_text("vehicles: []\n")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "at least one vehicle" in err
    assert "Traceback" not in err


def test_run_unplaceable_vehicle_count_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "huge.scenario"
    path.write_text(f"placement: {{count: {10**12}, min_separation: 0}}\n")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "placement.count" in err
    assert "Traceback" not in err


def test_run_unspreadable_placement_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "spread.scenario"
    path.write_text(
        "placement: {count: 3, area: [0, 0, 10, 10], min_separation: 14, connected: false}\n"
    )
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "placement.min_separation" in err
    assert "Traceback" not in err


def test_run_stalled_scenario_exits_two(tmp_path, capsys):
    cfg = ScenarioConfig(
        channel=ChannelConfig(comm_range=20.0, capture_threshold=0.0, path_loss_exponent=2.0),
        vehicle_radius=0.0,
        vehicles=((1, (25.8, 38.2)), (2, (10.4, 38.5)), (3, (1.0, 54.5))),
        initiators=(1,),
    )
    path = tmp_path / "stall.scenario"
    save_scenario(cfg, path)
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "converged=False" in capsys.readouterr().out


def test_run_extreme_path_loss_runs_without_a_traceback(tmp_path, capsys):
    # Under exponent 1000 every interferer's power is below 1e-300 of the
    # strongest frame's, so its linear share underflows to 0: listener 1
    # hears two frames and decodes the stronger.
    cfg = ScenarioConfig(
        channel=ChannelConfig(path_loss_exponent=1000.0),
        vehicles=((1, (50.0, 50.0)), (2, (45.0, 50.0)), (3, (56.0, 50.0))),
        initiators=(2, 3),
    )
    path = tmp_path / "steep.scenario"
    save_scenario(cfg, path)
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path), "--trace"])
    assert code in (0, 2)
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "trace.txt").read_text().startswith("slot 1 | tx 2,3 | 1:D2 ")


FAR = "grid: {origin: [1.0e+308, 0.0]}\n"


@pytest.mark.parametrize(
    "body, position",
    [
        (FAR + "vehicles:\n  - {id: 1, pos: [-1.0e+308, 5.0]}\n", "(-1e+308, 5.0)"),
        (
            FAR + "vehicles:\n  - {id: 1, pos: [1.0e+308, 5.0]}\n"
            "objects:\n  - {pos: [-1.0e+308, 5.0]}\n",
            "(-1e+308, 5.0)",
        ),
        # 1e308 m is 2e308 half-metre blocks, though only 1e306 zones
        (
            "grid: {zone_side: 100.0, block_side: 0.5}\n"
            "vehicles:\n  - {id: 1, pos: [1.0e+308, 2.5]}\n",
            "(1e+308, 2.5)",
        ),
    ],
    ids=["vehicle", "object", "blocks"],
)
def test_run_position_overflowing_its_offset_is_a_config_error(tmp_path, capsys, body, position):
    # Every number is finite, but the position lies more blocks from the
    # origin than a double holds, so its block cannot be located.
    path = tmp_path / "far.scenario"
    path.write_text(body)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: position {position} lies a non-finite number of blocks")
    assert "Traceback" not in err
    assert not out.exists()


def test_run_mac_override(tmp_path):
    main(["run", "--scenario", LINE3, "--out", str(tmp_path), "--mac", "csma"])
    assert (tmp_path / "metrics.csv").read_text().splitlines()[1].startswith("csma,")


def test_dump_matrix(tmp_path, capsys):
    assert main(["dump-matrix", "--scenario", LINE3, "--vehicle", "1"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 20
    assert all(tok in ("00", "01", "10", "11") for tok in rows[0].split())
    assert any("01" in row for row in rows)  # vehicle 1 starts with blind spots

    assert main(["dump-matrix", "--scenario", LINE3, "--vehicle", "99"]) == 1
    assert "no vehicle with id 99" in capsys.readouterr().err


def test_dump_matrix_marks_own_block_one_ulp_west_of_the_origin(tmp_path, capsys):
    # -5e-324 divides to -0.0 blocks, so it lies in block 0 of zone 0, and
    # the vehicle's own cell reads OBJECT.
    path = tmp_path / "edge.scenario"
    path.write_text(
        "vehicles:\n  - {id: 1, pos: [-5.0e-324, 2.5]}\n  - {id: 2, pos: [7.5, 2.5]}\n"
    )
    assert main(["dump-matrix", "--scenario", str(path), "--vehicle", "1"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[-1].split()[:2] == ["11", "11"]  # southernmost row: blocks 0 and 1


def test_sweep_counts_mode(tmp_path, capsys):
    argv = [
        "sweep",
        "--counts", "3,4",
        "--trials", "2",
        "--seed", "5",
        "--out", str(tmp_path),
    ]
    code = main(argv)
    assert code in (0, 2)  # individual trials may legitimately stall
    out = capsys.readouterr().out
    assert "sweep.csv" in out
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "count,trial,seed,last_tx_slot,quiescent_slot,latency_ms,converged"
    assert len(lines) == 5  # header + 2 counts x 2 trials

    rerun = tmp_path / "again"
    assert main(argv[:-1] + [str(rerun)]) == code
    assert (rerun / "sweep.csv").read_bytes() == (tmp_path / "sweep.csv").read_bytes()


def test_sweep_without_mac_runs_the_base_scenarios_mac(tmp_path):
    # Vehicle 1 starts an exchange, so the two MACs write different rows.
    path = tmp_path / "csma.scenario"
    save_scenario(ScenarioConfig(initiators=(1,), mac_mode="csma", seed=3), path)
    tables = {}
    for mac in ([], ["--mac", "csma"], ["--mac", "l3"]):
        out = tmp_path / ("-".join(mac) or "default")
        argv = ["sweep", "--scenario", str(path), "--counts", "6", "--trials", "2"]
        assert main(argv + mac + ["--out", str(out)]) in (0, 2)
        tables[tuple(mac)] = (out / "sweep.csv").read_text()
    assert tables[()] == tables[("--mac", "csma")] != tables[("--mac", "l3")]


def test_sweep_preset_writes_per_mac_files(tmp_path):
    code = main(
        ["sweep", "--preset", "paper-fig8", "--trials", "1", "--out", str(tmp_path)]
    )
    assert code in (0, 2)
    l3 = (tmp_path / "sweep_l3.csv").read_text().splitlines()
    csma = (tmp_path / "sweep_csma.csv").read_text().splitlines()
    assert len(l3) == len(csma) == 14  # header + counts 3..15, one trial each
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "extra",
    [["--counts", "3"], ["--mac", "csma"], ["--mac", "l3"], ["--scenario", LINE3]],
)
def test_sweep_preset_rejects_flags_it_fixes(tmp_path, capsys, extra):
    out = tmp_path / "out"
    argv = ["sweep", "--preset", "paper-fig7", "--trials", "1", "--out", str(out)]
    assert main(argv + extra) == 1
    err = capsys.readouterr().err
    assert f"error: --preset paper-fig7 fixes {extra[0]}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_requires_preset_or_counts(tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_negative_seed_is_a_config_error(tmp_path, capsys):
    argv = ["sweep", "--counts", "3", "--trials", "1", "--seed", "-1", "--out", str(tmp_path)]
    code = main(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert "error: seed must be non-negative" in err
    assert "Traceback" not in err


def test_bad_counts_list_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--counts", "3,x", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: argument --counts: bad counts list '3,x'" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--out", "{out}"],
        ["sweep", "--preset", "paper-fig7", "--trials", "x", "--out", "{out}"],
        [],
    ],
    ids=["run-without-scenario", "bad-trials", "no-command"],
)
def test_usage_errors_exit_one(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([a.format(out=out) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: zonecast") and "\nerror: " in err
    assert "Traceback" not in err and not out.exists()


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--preset" in capsys.readouterr().out


def test_run_seed_flag_overrides_the_scenario_seed(tmp_path):
    assert main(["run", "--scenario", LINE3, "--out", str(tmp_path), "--seed", "5"]) == 0
    row = (tmp_path / "metrics.csv").read_text().splitlines()[1]
    assert row.startswith("l3,5,3,")


def test_run_overflowing_path_loss_is_a_config_error(tmp_path, capsys):
    # At exponent 1e308 every received power is -inf and each capture ratio
    # -inf - -inf = nan, so listener 1 would record a collision.
    path = tmp_path / "overflow.scenario"
    path.write_text(
        "channel: {path_loss_exponent: 1.0e+308}\n"
        "vehicles: [{id: 1, pos: [50, 50]}, {id: 2, pos: [45, 50]}, {id: 3, pos: [56, 50]}]\n"
        "initiators: [2, 3]\n"
    )
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "path_loss_exponent" in err
    assert "Traceback" not in err


COMMANDS = {
    "run": ["run", "--out", "<out>"],
    "dump-matrix": ["dump-matrix", "--vehicle", "1"],
    "sweep": ["sweep", "--counts", "3", "--trials", "1", "--out", "<out>"],
}


def _fails_cleanly(argv, out, capsys, message):
    assert main([str(out) if arg == "<out>" else arg for arg in argv]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_non_utf8_scenario_is_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "latin.scenario"
    path.write_bytes(b"seed: 1\n\xff\xfe\n")
    argv = COMMANDS[command] + ["--scenario", str(path)]
    _fails_cleanly(argv, tmp_path / "out", capsys, f"cannot read scenario {path}")


def test_too_deeply_nested_scenario_is_a_parse_error(tmp_path, capsys):
    # One command only: YAML takes about a second to scan this far, and every
    # command reads its scenario through the same parser.
    path = tmp_path / "deep.scenario"
    path.write_text("seed: " + "[" * 3000 + "]" * 3000 + "\n")
    argv = COMMANDS["run"] + ["--scenario", str(path)]
    _fails_cleanly(argv, tmp_path / "out", capsys, f"{path}: parse error")


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--counts", "3", "--trials", "0"], "trials must be >= 1"),
        (["--counts", "1000"], "counts must be <= 999"),
        (["--counts", "3", "--trials", "1", "--seed", "-1"], "seed must be non-negative"),
    ],
)
def test_failed_sweep_writes_nothing(tmp_path, capsys, extra, message):
    _fails_cleanly(["sweep", "--out", "<out>"] + extra, tmp_path / "out", capsys, message)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", LINE3],
        ["sweep", "--counts", "3", "--trials", "1"],
    ],
)
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, argv):
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write to {out}" in err
    assert "Traceback" not in err
    assert out.read_text() == "keep me\n"


def test_grid_too_fine_to_hold_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "fine.scenario"
    path.write_text(
        "grid: {zone_side: 1.0e+7, block_side: 1.0}\n"
        "vehicles: [{id: 1, pos: [1, 1]}, {id: 2, pos: [5, 5]}]\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid: ") and "Traceback" not in err
    assert not out.exists()


def test_scenario_near_the_float_limit_runs_without_a_warning(tmp_path, capsys):
    # The squared radii and distances of the occlusion test overflow to inf
    # here, which the test is written to allow: no numpy warning is printed.
    path = tmp_path / "huge.scenario"
    path.write_text(
        "grid: {zone_side: 1.0e+300, block_side: 1.0e+298}\n"
        "channel: {comm_range: 1.0e+300}\n"
        "sensing_range: 1.0e+300\n"
        "vehicle_radius: 1.0e+297\n"
        "vehicles: [{id: 1, pos: [1.0e+299, 1.0e+299]}, {id: 2, pos: [5.0e+299, 5.0e+299]},"
        " {id: 3, pos: [9.0e+299, 1.0e+299]}]\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in capsys.readouterr().err
