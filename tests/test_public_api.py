"""The public API: the names ``import zonecast`` exposes, counted as the
non-module names in ``dir(zonecast)`` without a leading underscore."""

import re
import types
from pathlib import Path

import zonecast

PUBLIC_NAMES = {
    # channel
    "COLLISION",
    "DELIVERED",
    "ChannelConfig",
    "Packet",
    "link_table",
    "received_power",
    "resolve_slot",
    # engine
    "ConfigError",
    "CsmaConfig",
    "Placement",
    "RunMetrics",
    "ScenarioConfig",
    "build_world",
    "run",
    "sweep",
    "sweep_csv",
    # grid
    "GridConfig",
    "ZoneIndex",
    "locate_block",
    "locate_zone",
    # presets
    "PRESETS",
    # scenario
    "bundled_scenario",
    "load_scenario",
    "save_scenario",
    # sensing
    "BlockState",
    "GroundTruth",
    "SensingMatrix",
    "aggregate",
    "decode",
    "encode",
    "format_matrix",
    "perceive",
}


def _public():
    return {
        name
        for name in dir(zonecast)
        if not name.startswith("_")
        and not isinstance(getattr(zonecast, name), types.ModuleType)
    }


def test_public_names_are_pinned():
    public = _public()
    assert public == PUBLIC_NAMES
    assert len(public) == 32


def test_readme_documents_every_public_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    quoted = {word for span in spans for word in re.findall(r"\w+", span)}
    assert sorted(_public() - quoted) == []
