"""Tests that reported hops count actual link traversals, not distance.

The fix under test: ``average_hops`` used to fall back to the Manhattan
distance between source and destination, silently under-reporting any
detour.  Packets now carry a ``hops`` counter incremented on every link
launch of the head flit, so a detoured worm reports the links it really
crossed.
"""

import functools

import pytest

from repro.core import simulator
from repro.core.simulator import Simulator
from repro.core.statistics import StatsCollector
from repro.core.types import Direction, NodeId, Packet
from repro.faults.injector import ComponentFault
from repro.faults.model import Component
from repro.routing.xyyx import XYYXRouting
from repro.traffic.base import TrafficPattern

from .conftest import small_config
from .test_admission import roco_oracle

SRC = NodeId(0, 0)
DEST = NodeId(2, 2)

#: A staircase (0,0) -> (3,0) -> (3,2) -> (2,2): 6 link traversals where
#: the minimal route needs only 4.  Every leg is class-legal on the RoCo
#: XY-YX Table-1 path sets (dx -> txy -> dy -> tyx -> eject).
DETOUR = {
    NodeId(0, 0): Direction.EAST,
    NodeId(1, 0): Direction.EAST,
    NodeId(2, 0): Direction.EAST,
    NodeId(3, 0): Direction.SOUTH,
    NodeId(3, 1): Direction.SOUTH,
    NodeId(3, 2): Direction.WEST,
}


class DetourRouting(XYYXRouting):
    """Forces the staircase for (0,0)->(2,2); defers otherwise."""

    def candidates(self, node: NodeId, packet: Packet):
        if packet.dest == DEST and node in DETOUR:
            return (DETOUR[node],)
        return super().candidates(node, packet)


class SingleFlow(TrafficPattern):
    """Every packet goes (0,0) -> (2,2); only (0,0) generates."""

    name = "single-flow"

    def destination(self, src: NodeId) -> NodeId:
        return DEST

    def arrivals(self, node: NodeId, cycle: int) -> int:
        if node != SRC:
            return 0
        return super().arrivals(node, cycle)


def _detour_sim() -> Simulator:
    config = small_config(
        routing="xy-yx",
        injection_rate=0.05,
        warmup_packets=0,
        measure_packets=40,
    )
    # One static critical fault away from the staircase, so this is a
    # faulted XY-YX run (the regime the old Manhattan fallback lied in).
    fault = ComponentFault(node=NodeId(1, 3), component=Component.CROSSBAR)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "make_traffic", lambda name: SingleFlow())
        sim = Simulator(config, faults=[fault])
    routing = DetourRouting()
    routing.topology = sim.network.topology
    sim.network.routing = routing
    for router in sim.network.routers.values():
        router.routing = routing
        # A router reads admission from the table built with its mode's
        # own routing function; the detour needs the per-call admission
        # that asks the router's routing, which the admission oracle is.
        router.vc_candidates = functools.partial(roco_oracle, router)
    return sim


class TestDetouredRun:
    def test_average_hops_reports_real_traversals(self):
        result = _detour_sim().run()
        assert result.delivered_packets == 40
        manhattan = abs(SRC.x - DEST.x) + abs(SRC.y - DEST.y)
        assert result.average_hops == 6.0
        assert result.average_hops > manhattan

    def test_packet_hop_counter_matches_route_length(self):
        sim = _detour_sim()
        delivered = []
        sim.delivery_listeners.append(delivered.append)
        sim.run()
        assert delivered
        assert all(p.hops == len(DETOUR) for p in delivered)


class TestStatsFallback:
    def test_fallback_uses_counted_hops(self):
        stats = StatsCollector()
        stats.start_measurement(0)
        packet = Packet(
            pid=0, src=SRC, dest=DEST, size=4, created_cycle=0
        )
        packet.hops = 6  # more than the Manhattan distance of 4
        stats.packet_created(packet)
        packet.delivered_cycle = 20
        stats.packet_delivered(packet, True)
        assert stats.average_hops == 6.0

    def test_explicit_hops_argument_still_wins(self):
        stats = StatsCollector()
        stats.start_measurement(0)
        packet = Packet(
            pid=0, src=SRC, dest=DEST, size=4, created_cycle=0
        )
        packet.hops = 3
        stats.packet_created(packet)
        packet.delivered_cycle = 20
        stats.packet_delivered(packet, True, hops=9)
        assert stats.average_hops == 9.0
