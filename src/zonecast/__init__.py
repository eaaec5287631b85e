"""zonecast: slotted broadcast sharing of per-zone sensing matrices.

Vehicles in a map zone perceive their surroundings into 2-bit block matrices,
then flood them over a synchronized slotted channel with capture effect and
constructive interference until every vehicle holds the identical matrix.
"""

from .channel import (
    COLLISION,
    DELIVERED,
    ChannelConfig,
    Packet,
    link_table,
    received_power,
    resolve_slot,
)
from .engine import (
    ConfigError,
    CsmaConfig,
    Placement,
    RunMetrics,
    ScenarioConfig,
    build_world,
    run,
    sweep,
    sweep_csv,
)
from .grid import (
    GridConfig,
    ZoneIndex,
    locate_block,
    locate_zone,
)
from .presets import PRESETS
from .scenario import (
    bundled_scenario,
    load_scenario,
    save_scenario,
)
from .sensing import (
    BlockState,
    GroundTruth,
    SensingMatrix,
    aggregate,
    decode,
    encode,
    format_matrix,
    perceive,
)

__version__ = "0.1.0"
