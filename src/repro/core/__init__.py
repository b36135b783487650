"""Core simulation substrate: types, buffers, links, network, simulator."""

from repro.core.buffer import CREDIT_LATENCY, VirtualChannel
from repro.core.channel import LINK_DELAY, Channel
from repro.core.config import RouterConfig, SimulationConfig
from repro.core.network import Network
from repro.core.simulator import (
    DeadlockError,
    DrainTimeoutError,
    SimulationResult,
    Simulator,
    StrandedCensus,
    run_simulation,
)
from repro.core.statistics import ActivityCounters, ContentionCounters, StatsCollector
from repro.core.types import (
    CARDINALS,
    Direction,
    Flit,
    FlitType,
    NodeId,
    Packet,
    RoutingMode,
    make_packet_flits,
)

__all__ = [
    "ActivityCounters",
    "CARDINALS",
    "CREDIT_LATENCY",
    "Channel",
    "ContentionCounters",
    "DeadlockError",
    "Direction",
    "DrainTimeoutError",
    "Flit",
    "FlitType",
    "LINK_DELAY",
    "Network",
    "NodeId",
    "Packet",
    "RouterConfig",
    "RoutingMode",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "StatsCollector",
    "StrandedCensus",
    "VirtualChannel",
    "make_packet_flits",
    "run_simulation",
]
