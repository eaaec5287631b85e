"""Property tests for scenario files.

(a) Generated ScenarioConfigs survive save_scenario -> load_scenario.
(b) One mutation of a valid document is a ConfigError, never another
    exception. The mutation sites are found by walking the document itself,
    with the schema facts a reader of the README knows (which keys are
    required, which lists have a fixed length), not through the codec.
(c) Every small document that parses runs or raises ConfigError, under both
    MACs.
"""

import math
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from zonecast import (
    ChannelConfig,
    ConfigError,
    CsmaConfig,
    GridConfig,
    Placement,
    ScenarioConfig,
    load_scenario,
    run,
    save_scenario,
)
from zonecast.scenario import parse_scenario, scenario_to_dict

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e6)
point = st.tuples(finite, finite)


@st.composite
def configs(draw):
    block = draw(st.sampled_from([1.0, 2.5, 5.0, 10.0]))
    cw_min = draw(st.integers(1, 1024))
    layout = draw(st.sampled_from(["vehicles", "placement"]))
    return ScenarioConfig(
        grid=GridConfig(block * draw(st.integers(1, 40)), block, draw(point)),
        channel=ChannelConfig(
            comm_range=draw(positive),
            capture_threshold=draw(st.floats(0.0, 30.0)),
            path_loss_exponent=draw(positive),
        ),
        sensing_range=draw(positive),
        slot_duration_ms=draw(positive),
        vehicles=(
            tuple(draw(st.lists(st.tuples(st.integers(), point), max_size=6)))
            if layout == "vehicles"
            else None
        ),
        placement=(
            Placement(
                count=draw(st.integers()),
                area=draw(st.none() | st.tuples(finite, finite, finite, finite)),
                min_separation=draw(finite),
                connected=draw(st.booleans()),
            )
            if layout == "placement"
            else None
        ),
        vehicle_radius=draw(st.floats(0.0, 10.0)),
        objects=tuple(draw(st.lists(st.tuples(point, positive), max_size=4))),
        initiators=draw(st.none() | st.lists(st.integers(), max_size=4).map(tuple)),
        max_slots=draw(st.none() | st.integers(1, 10**6)),
        mac_mode=draw(st.sampled_from(["l3", "csma"])),
        seed=draw(st.integers(0, 2**64)),
        csma=CsmaConfig(cw_min, draw(st.integers(cw_min, 4096)), draw(st.floats(0.0, 100.0))),
    )


@settings(max_examples=50, deadline=None)
@given(configs())
def test_generated_configs_round_trip(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "generated.scenario"
        save_scenario(cfg, path)
        assert load_scenario(path) == cfg


# Mappings (named by the key that holds them) and their required keys, and
# the keys whose lists have a fixed length.
REQUIRED = {"vehicles": ("id", "pos"), "objects": ("pos",), "placement": ("count",)}
FIXED_LENGTH = ("pos", "origin", "area")
WRONG_TYPE = {dict: "wide", list: "wide", bool: 1, int: 1.5, float: "wide", str: 5}


def mutation_sites(node, path=(), key=None):
    """(kind, path) for every place in a document where a mutation can go."""
    if path:
        yield "wrong_type", path
    if isinstance(node, dict):
        yield "unknown_key", path
        for name in REQUIRED.get(key, ()):
            yield "drop_required", path + (name,)
        for k, v in node.items():
            yield from mutation_sites(v, path + (k,), k)
    elif isinstance(node, list):
        if key in FIXED_LENGTH:
            yield "wrong_length", path
        for i, v in enumerate(node):
            yield from mutation_sites(v, path + (i,), key)
    elif type(node) is int:
        yield "bool_for_int", path
    elif type(node) is float:
        yield "non_finite", path


def mutate(doc, kind, path, rnd):
    if kind == "unknown_key":
        for step in path:
            doc = doc[step]
        doc["not_a_field"] = 1
        return
    holder = doc
    for step in path[:-1]:
        holder = holder[step]
    last = path[-1]
    target = holder[last]
    if kind == "wrong_type":
        holder[last] = WRONG_TYPE[type(target)]
    elif kind == "drop_required":
        del holder[last]
    elif kind == "wrong_length":
        holder[last] = target + [0.0] if rnd.random() < 0.5 else target[:-1]
    elif kind == "bool_for_int":
        holder[last] = rnd.choice([True, False])
    else:
        holder[last] = rnd.choice([math.inf, -math.inf, math.nan])


@settings(max_examples=100, deadline=None)
@given(configs(), st.data())
def test_one_mutation_of_a_valid_document_is_a_config_error(cfg, data):
    doc = scenario_to_dict(cfg)
    sites = {}
    for kind, path in mutation_sites(doc):
        sites.setdefault(kind, []).append(path)
    # A kind first, then a site of it, each picked uniformly: sampled_from
    # favours early entries so strongly that the deep sites were never chosen.
    rnd = data.draw(st.randoms())
    kind = rnd.choice(sorted(sites))
    mutate(doc, kind, rnd.choice(sites[kind]), rnd)
    with pytest.raises(ConfigError):
        parse_scenario(yaml.safe_dump(doc))


coord = st.sampled_from([0.0, 12.5, 30.0, 47.5, 60.0, 80.0, 99.9])


@st.composite
def small_documents(draw):
    """Small documents, valid in type but not always in meaning: vehicles may
    share an id or a position or leave the zone, initiators may be unknown,
    and a document may give both or neither of vehicles and placement."""
    doc = {
        "grid": {"zone_side": 100.0, "block_side": draw(st.sampled_from([5.0, 10.0, 20.0]))},
        "channel": {
            "comm_range": draw(st.floats(30.0, 150.0)),
            "capture_threshold": draw(st.floats(0.0, 6.0)),
            "path_loss_exponent": draw(st.floats(1.0, 4.0)),
        },
        "sensing_range": draw(st.floats(1.0, 60.0)),
        "vehicle_radius": draw(st.floats(0.0, 3.0)),
        "objects": draw(st.lists(
            st.fixed_dictionaries(
                {"pos": st.lists(coord, min_size=2, max_size=2)},
                optional={"radius": st.floats(0.1, 10.0)},
            ),
            max_size=3,
        )),
        "max_slots": draw(st.integers(1, 30)),
        "seed": draw(st.integers(0, 1000)),
        "csma": {"cw_min": draw(st.integers(1, 64)), "cw_max": 1024},
    }
    layout = draw(st.sampled_from(["vehicles"] * 3 + ["placement"] * 3 + ["both", "neither"]))
    ids = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True))
    if layout in ("vehicles", "both"):
        if len(ids) > 1 and draw(st.integers(0, 9)) == 0:
            ids[-1] = ids[0]
        doc["vehicles"] = [{"id": i, "pos": [draw(coord), draw(coord)]} for i in ids]
        if draw(st.integers(0, 9)) == 0:
            doc["vehicles"][0]["pos"] = [110.0, 50.0]  # the next zone east
    if layout in ("placement", "both"):
        ids = list(range(1, draw(st.integers(0, 6)) + 1))
        doc["placement"] = {
            "count": len(ids),
            "min_separation": draw(st.floats(0.0, 15.0)),
            "connected": draw(st.booleans()),
        }
        if draw(st.booleans()):
            # Sides of at least 40 m: 6 vehicles 15 m apart always fit, so
            # placement never spends its whole retry budget.
            x0, y0 = draw(st.floats(0.0, 50.0)), draw(st.floats(0.0, 50.0))
            x1, y1 = x0 + draw(st.floats(40.0, 49.0)), y0 + draw(st.floats(40.0, 49.0))
            doc["placement"]["area"] = [x0, y0, x1, y1]
    if draw(st.booleans()):
        doc["initiators"] = draw(st.lists(st.sampled_from(ids + [99]), max_size=3))
    return doc


@settings(max_examples=80, deadline=None)
@given(small_documents())
def test_small_documents_run_or_raise_config_errors(doc):
    try:
        cfg = parse_scenario(yaml.safe_dump(doc))
    except ConfigError:
        return
    for mac in ("l3", "csma"):
        try:
            metrics = run(replace(cfg, mac_mode=mac))
        except ConfigError:
            continue
        assert metrics.quiescent_slot <= cfg.max_slots
