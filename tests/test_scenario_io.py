"""Tests for scenario parsing, saving, and the bundled scenario files."""

import re

import pytest

from zonecast import (
    ChannelConfig,
    ConfigError,
    CsmaConfig,
    GridConfig,
    Placement,
    ScenarioConfig,
    bundled_scenario,
    load_scenario,
    save_scenario,
)
from zonecast.scenario import parse_scenario, scenario_to_dict
from zonecast.presets import PRESETS


def test_empty_document_yields_defaults():
    assert parse_scenario("") == ScenarioConfig()
    assert parse_scenario("# just a comment\n") == ScenarioConfig()


def test_fields_parse_into_nested_configs():
    cfg = parse_scenario(
        """
        grid: {zone_side: 50, block_side: 10, origin: [-25, -25]}
        channel: {comm_range: 80, capture_threshold: 1.5}
        csma: {cw_min: 31, micro_slot_us: 9}
        sensing_range: 40
        slot_duration_ms: 1.5
        vehicle_radius: 0.5
        vehicles:
          - {id: 1, pos: [1, 2]}
          - {id: 2, pos: [3.5, 4.5]}
        objects:
          - {pos: [10, 10], radius: 2}
          - {pos: [20, 20]}
        initiators: [2]
        max_slots: 77
        mac_mode: csma
        seed: 13
        """
    )
    assert cfg.grid == GridConfig(50.0, 10.0, (-25.0, -25.0))
    assert cfg.channel.comm_range == 80.0
    assert cfg.channel.capture_threshold == 1.5
    assert cfg.csma == CsmaConfig(cw_min=31, micro_slot_us=9.0)
    assert cfg.sensing_range == 40.0
    assert cfg.slot_duration_ms == 1.5
    assert cfg.vehicle_radius == 0.5
    assert cfg.vehicles == ((1, (1.0, 2.0)), (2, (3.5, 4.5)))
    assert cfg.objects == (((10.0, 10.0), 2.0), ((20.0, 20.0), 1.0))
    assert cfg.initiators == (2,)
    assert cfg.max_slots == 77
    assert cfg.mac_mode == "csma"
    assert cfg.seed == 13


def test_unknown_keys_are_named_in_the_error():
    with pytest.raises(ConfigError, match="typo_key"):
        parse_scenario("typo_key: 1")
    with pytest.raises(ConfigError, match="bogus"):
        parse_scenario("channel: {bogus: 2}")
    with pytest.raises(ConfigError, match="speed"):
        parse_scenario("vehicles: [{id: 1, pos: [0, 0], speed: 3}]")


def test_yaml_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="line"):
        parse_scenario("vehicles: [\n  {id: 1\n")


def test_type_validation():
    with pytest.raises(ConfigError, match="seed"):
        parse_scenario("seed: true")  # bools are not integers
    with pytest.raises(ConfigError, match="sensing_range"):
        parse_scenario("sensing_range: wide")
    with pytest.raises(ConfigError, match="connected"):
        parse_scenario("placement: {count: 3, connected: 1}")
    with pytest.raises(ConfigError, match="mac_mode"):
        parse_scenario("mac_mode: aloha")
    with pytest.raises(ConfigError, match="pos"):
        parse_scenario("vehicles: [{id: 1}]")
    with pytest.raises(ConfigError, match="initiators"):
        parse_scenario("initiators: 5")
    with pytest.raises(ConfigError, match="area"):
        parse_scenario("placement: {count: 3, area: [0, 0, 10]}")


def test_invalid_values_surface_as_config_errors():
    with pytest.raises(ConfigError, match="block_side"):
        parse_scenario("grid: {zone_side: 10, block_side: 3}")  # not a divisor
    with pytest.raises(ConfigError, match="slot_duration_ms"):
        parse_scenario("slot_duration_ms: 0")


def test_roundtrip_explicit_vehicles(tmp_path):
    cfg = ScenarioConfig(
        grid=GridConfig(50.0, 5.0),
        channel=ChannelConfig(comm_range=30.0, capture_threshold=2.0),
        sensing_range=20.0,
        slot_duration_ms=1.0,
        vehicles=((1, (10.0, 10.0)), (2, (20.0, 10.0))),
        vehicle_radius=0.0,
        objects=(((5.0, 5.0), 1.5),),
        initiators=(1,),
        max_slots=50,
        mac_mode="l3",
        seed=3,
        csma=CsmaConfig(cw_min=7),
    )
    path = tmp_path / "round.scenario"
    save_scenario(cfg, path)
    assert load_scenario(path) == cfg


def test_roundtrip_placement(tmp_path):
    cfg = ScenarioConfig(
        placement=Placement(count=9, area=(0.0, 0.0, 60.0, 60.0), min_separation=2.0),
        seed=8,
    )
    path = tmp_path / "placed.scenario"
    save_scenario(cfg, path)
    assert load_scenario(path) == cfg


def test_scenario_to_dict_omits_unset_optionals():
    d = scenario_to_dict(ScenarioConfig())
    assert "vehicles" not in d
    assert "placement" not in d
    assert "initiators" not in d
    assert "max_slots" not in d


def test_bundled_scenarios_load():
    for name in ("fig5_line3", "grid9_corner", "grid9_middle"):
        cfg = load_scenario(bundled_scenario(name))
        assert cfg.vehicles  # all bundled scenarios pin explicit positions
    assert bundled_scenario("fig5_line3.scenario") == bundled_scenario("fig5_line3")
    with pytest.raises(ConfigError, match="no bundled scenario"):
        bundled_scenario("missing")


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(tmp_path / "nope.scenario")


@pytest.mark.parametrize(
    "text, message",
    [
        ("csma: {cw_min: 0}", "csma: cw_min must be >= 1"),
        ("csma: {cw_min: 8, cw_max: 4}", r"csma: cw_max must be in \[cw_min, 2\*\*63\]"),
        ("csma: {cw_max: 100000000000000000000}", "csma: cw_max must be in"),
        ("csma: {micro_slot_us: -1}", "csma: micro_slot_us must be non-negative"),
        ("objects: [{pos: [5, 5], radius: 0}]", "object radii must be positive"),
        ("seed: -1", "seed must be non-negative"),
        ("vehicles: [{id: 1, pos: [.inf, 10]}]", r"vehicles\[0\]\.pos\[0\]: expected a finite"),
        ("grid: {origin: [.nan, 0]}", r"grid\.origin\[0\]: expected a finite"),
        ("placement: {count: 3, area: [0, 0, .inf, 10]}", r"placement\.area\[2\]: expected"),
        ("sensing_range: 1" + "0" * 400, "sensing_range: expected a finite"),
        ("grid: {zone_side: 1.0e+308, block_side: 1.0e-10}", "grid: zone_side"),
        ("grid: {zone_side: 1.0e+7, block_side: 1.0}", "grid: .* must be <= 1024, got 10000000"),
        ("grid: {zone_side: -5}", "grid: zone_side and block_side must be positive"),
        ("channel: {comm_range: 0}", "channel: comm_range must be positive"),
        ("channel: {capture_threshold: -1}", "channel: capture_threshold must be non-negative"),
        ("channel: {path_loss_exponent: 0}", "channel: path_loss_exponent must be positive"),
        ("vehicle_radius: -1", "vehicle_radius must be non-negative"),
    ],
)
def test_out_of_range_values_are_config_errors(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_scenario(text)


def test_error_messages_carry_key_paths(tmp_path):
    cases = {
        "grid: {zone_side: wide}": "grid.zone_side: expected a number",
        "vehicles: [{id: 1, pos: [0, x]}]": "vehicles[0].pos[1]: expected a number",
        "vehicles: [{id: 1.5, pos: [0, 0]}]": "vehicles[0].id: expected an integer",
        "vehicles: [{id: 1}]": "vehicles[0]: needs 'pos'",
        "placement: {count: 3, connected: 1}": "placement.connected: expected true/false",
        "placement: {min_separation: 2}": "placement: needs 'count'",
        "objects: [{pos: [1, 2, 3]}]": "objects[0].pos: expected a list of 2",
        "channel: {bogus: 2}": "unknown key 'bogus' in channel",
        "mac_mode: 5": "mac_mode: expected a string",
    }
    for text, message in cases.items():
        with pytest.raises(ConfigError) as exc:
            parse_scenario(text)
        assert str(exc.value).startswith(message), text
    path = tmp_path / "bad.scenario"
    path.write_text("slot_duration_ms: 0\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: slot_duration_ms"):
        load_scenario(path)


def test_bundled_scenarios_and_preset_bases_round_trip(tmp_path):
    names = ("fig5_line3", "grid9_corner", "grid9_middle")
    configs = [load_scenario(bundled_scenario(n)) for n in names]
    configs += [preset.base for preset in PRESETS.values()]
    for i, cfg in enumerate(configs):
        path = tmp_path / f"{i}.scenario"
        save_scenario(cfg, path)
        assert load_scenario(path) == cfg


def test_writer_takes_plain_tuples_and_writes_field_order():
    cfg = ScenarioConfig(
        vehicles=((1, (1.0, 2.0)),), objects=(((3.0, 4.0), 2.0),), initiators=(1,)
    )
    d = scenario_to_dict(cfg)
    assert d["vehicles"] == [{"id": 1, "pos": [1.0, 2.0]}]
    assert d["objects"] == [{"pos": [3.0, 4.0], "radius": 2.0}]
    assert list(d) == [
        "grid", "channel", "sensing_range", "slot_duration_ms", "vehicles",
        "vehicle_radius", "objects", "initiators", "mac_mode", "seed", "csma",
    ]
    assert parse_scenario("objects: [{pos: [3, 4]}]").objects[0].radius == 1.0


def test_a_record_must_be_a_mapping():
    with pytest.raises(ConfigError, match="channel: expected a mapping, got int"):
        parse_scenario("channel: 5\n")


def test_explicit_null_leaves_an_optional_unset():
    assert parse_scenario("max_slots: null\n").max_slots is None
    assert parse_scenario("max_slots: 7\n").max_slots == 7
