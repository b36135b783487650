"""Unit tests for the per-node traffic source (injection machinery)."""

from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.simulator import Source
from repro.core.types import NodeId, Packet

from .conftest import backlog


def setup(router="roco"):
    net = Network(
        SimulationConfig(
            width=4, height=4, router=router, warmup_packets=0, measure_packets=10
        )
    )
    net.wire()
    net.stats.start_measurement(0)
    node = NodeId(1, 1)
    return net, Source(node, net.router_at(node))


def queue_packet(net, source, dest=NodeId(3, 1), pid=0, size=4):
    packet = Packet(
        pid=pid, src=source.node, dest=dest, size=size, created_cycle=0
    )
    packet.measured = True
    net.stats.packet_created(packet)
    source.queue.append(packet)
    return packet


class TestInjectionMechanics:
    def test_one_flit_per_cycle(self):
        net, source = setup()
        packet = queue_packet(net, source)
        for cycle in range(3):
            source.inject(net, cycle)
        assert source.vc is not None
        assert source.vc.occupancy == 3
        assert len(source.current) == 1

    def test_claims_and_releases_vc(self):
        net, source = setup()
        packet = queue_packet(net, source, size=2)
        source.inject(net, 0)
        vc = source.vc
        assert vc.owner_pid == packet.pid
        source.inject(net, 1)
        # Tail pushed: VC released, source idle.
        assert vc.owner_pid is None
        assert source.current is None

    def test_head_commits_route(self):
        net, source = setup()
        queue_packet(net, source, dest=NodeId(3, 1))
        source.inject(net, 0)
        head = source.vc.front
        assert head.is_head
        assert head.route is not None  # RoCo commits at injection

    def test_backlog_counts_queue_and_inflight(self):
        net, source = setup()
        queue_packet(net, source, pid=0)
        queue_packet(net, source, pid=1, dest=NodeId(1, 3))
        assert backlog(source) == 8
        source.inject(net, 0)
        assert backlog(source) == 8 - 1

    def test_impossible_packet_dropped_immediately(self):
        net, source = setup()
        net.has_faults = True
        source.router.row.dead = True
        packet = queue_packet(net, source, dest=NodeId(3, 1))  # needs X first
        source.inject(net, 0)
        assert packet.dropped_cycle is not None
        assert not source.queue

    def test_dropped_mid_injection_releases_vc(self):
        net, source = setup()
        packet = queue_packet(net, source)
        source.inject(net, 0)
        vc = source.vc
        packet.dropped_cycle = 1
        source.inject(net, 2)
        assert source.current is None
        assert vc.owner_pid is None

    def test_waits_when_no_vc_available(self):
        net, source = setup()
        first = queue_packet(net, source, pid=0, dest=NodeId(3, 1))
        # Claim every injxy VC so nothing is available.
        for vc in source.router.all_vcs():
            if vc.vc_class == "injxy" and vc.owner_pid is None:
                vc.claim(99)
        source.inject(net, 0)
        assert source.current is None
        assert source.queue  # still waiting, not dropped
