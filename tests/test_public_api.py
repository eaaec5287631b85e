"""The public API: the names ``import zonecast`` exposes, counted as the
non-module names in ``dir(zonecast)`` without a leading underscore."""

import types

import zonecast

PUBLIC_NAMES = {
    # channel
    "COLLISION",
    "DELIVERED",
    "SILENCE",
    "ChannelConfig",
    "DegenerateGeometryError",
    "InvalidSlotError",
    "Packet",
    "link_table",
    "received_power",
    "resolve_slot",
    # engine
    "SWEEP_COLUMNS",
    "ConfigError",
    "CsmaConfig",
    "Placement",
    "RunMetrics",
    "ScenarioConfig",
    "build_world",
    "run",
    "run_baseline",
    "sweep",
    "sweep_csv",
    # grid
    "GridConfig",
    "OutOfZoneError",
    "Position",
    "ZoneIndex",
    "block_centers",
    "locate_block",
    "locate_zone",
    # presets
    "PRESETS",
    # protocol
    "VehicleState",
    "init_vehicle",
    "is_globally_converged",
    "on_delivery",
    "on_slot_begin",
    # scenario
    "bundled_scenario",
    "load_scenario",
    "parse_scenario",
    "save_scenario",
    "scenario_to_dict",
    # sensing
    "BlockState",
    "GroundTruth",
    "IncompatibleMatrixError",
    "PayloadSizeError",
    "SensingMatrix",
    "aggregate",
    "decode",
    "encode",
    "format_matrix",
    "has_uncertain",
    "perceive",
}


def test_public_names_are_pinned():
    public = {
        name
        for name in dir(zonecast)
        if not name.startswith("_")
        and not isinstance(getattr(zonecast, name), types.ModuleType)
    }
    assert public == PUBLIC_NAMES
    assert len(public) == 50
