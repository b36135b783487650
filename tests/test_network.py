"""Unit tests for the mesh network container."""

from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.types import Direction, NodeId, Packet
from repro.faults import Component, ComponentFault, apply_faults
from repro.routers.roco.path_set import ROW


def network(router="roco", faults=None, **overrides):
    params = {"width": 4, "height": 4, "router": router}
    params.update(overrides)
    net = Network(SimulationConfig(**params))
    net.wire()
    if faults:
        apply_faults(net, faults)
    return net


class TestTopology:
    def test_node_count(self):
        assert len(network().routers) == 16
        assert len(network(width=3, height=5).routers) == 15

    def test_wiring_connects_neighbours(self):
        net = network()
        router = net.routers[NodeId(1, 1)]
        east = router.outputs[Direction.EAST]
        assert east.downstream is net.routers[NodeId(2, 1)]
        assert east.input_dir is Direction.WEST

    def test_border_ports_absent(self):
        net = network()
        corner = net.routers[NodeId(3, 3)]
        assert set(corner.outputs) == {Direction.NORTH, Direction.WEST}


class TestDeliveryBookkeeping:
    def test_eject_counts_flits_and_packet(self):
        net = network()
        net.stats.start_measurement(0)
        packet = Packet(
            pid=1, src=NodeId(0, 0), dest=NodeId(1, 0), size=2, created_cycle=0
        )
        packet.measured = True
        net.stats.packet_created(packet)
        from repro.core.types import make_packet_flits

        flits = make_packet_flits(packet)
        net.eject(flits[0], packet.dest, cycle=10, early=True)
        assert packet.delivered_cycle is None
        net.eject(flits[1], packet.dest, cycle=11, early=True)
        assert packet.delivered_cycle == 11
        assert net.stats.delivered_packets == 1
        assert net.stats.activity.early_ejections == 2

    def test_drop_marks_and_purges(self):
        net = network()
        net.stats.start_measurement(0)
        packet = Packet(
            pid=2, src=NodeId(0, 0), dest=NodeId(3, 3), size=4, created_cycle=0
        )
        packet.measured = True
        net.stats.packet_created(packet)
        net.drop_packet(packet, cycle=50)
        assert packet.dropped_cycle == 50
        assert net.stats.dropped_packets == 1
        # Dropping again is a no-op.
        net.drop_packet(packet, cycle=60)
        assert packet.dropped_cycle == 50
        assert net.stats.dropped_packets == 1

    def test_eject_ignores_dropped_packets(self):
        net = network()
        packet = Packet(
            pid=3, src=NodeId(0, 0), dest=NodeId(1, 1), size=1, created_cycle=0
        )
        packet.dropped_cycle = 5
        from repro.core.types import make_packet_flits

        net.eject(make_packet_flits(packet)[0], packet.dest, 10, early=False)
        assert packet.delivered_cycle is None


class TestFaultQueries:
    def test_can_transit_healthy(self):
        net = network()
        assert net.can_transit(NodeId(1, 1), Direction.EAST)

    def test_roco_dead_module_blocks_one_dimension(self):
        net = network(
            "roco",
            faults=[ComponentFault(NodeId(1, 1), Component.CROSSBAR, module=ROW)],
        )
        assert not net.can_transit(NodeId(1, 1), Direction.EAST)
        assert not net.can_transit(NodeId(1, 1), Direction.WEST)
        assert net.can_transit(NodeId(1, 1), Direction.NORTH)
        assert net.node_blocked(NodeId(1, 1))

    def test_generic_dead_node_blocks_everything(self):
        net = network(
            "generic", faults=[ComponentFault(NodeId(2, 2), Component.SA)]
        )
        for d in (Direction.NORTH, Direction.EAST, Direction.SOUTH, Direction.WEST):
            assert not net.can_transit(NodeId(2, 2), d)
        assert net.node_blocked(NodeId(2, 2))

    def test_wire_after_faults_marks_dead_ports(self):
        net = Network(SimulationConfig(width=4, height=4, router="generic"))
        apply_faults(net, [ComponentFault(NodeId(1, 0), Component.VA)])
        net.wire()
        west_neighbor = net.routers[NodeId(0, 0)]
        assert west_neighbor.outputs[Direction.EAST].dead
