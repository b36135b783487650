"""Unit tests for the shared router machinery (base pipeline mechanics)."""

import pytest

from repro.core.channel import LINK_DELAY
from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.types import Direction, NodeId, Packet, make_packet_flits
from repro.routers.base import EJECT


def network(router="roco", **overrides):
    params = {
        "width": 4,
        "height": 4,
        "router": router,
        "warmup_packets": 0,
        "measure_packets": 10,
    }
    params.update(overrides)
    net = Network(SimulationConfig(**params))
    net.wire()
    net.stats.start_measurement(0)
    return net


def inject_worm(net, src, dest, pid=0, size=2):
    """Place a worm directly into an injection VC, bypassing the Source."""
    router = net.routers[src]
    packet = Packet(pid=pid, src=src, dest=dest, size=size, created_cycle=0)
    packet.measured = True
    net.stats.packet_created(packet)
    vc, route = router.injection_vc_for(packet)
    vc.claim(packet.pid)
    flits = make_packet_flits(packet)
    flits[0].route = route
    for flit in flits:
        vc.reserve_slot(net.cycle)
        vc.push(flit)
        flit.arrival = -1  # pretend it arrived earlier (RC already done)
    vc.active_pid = packet.pid
    vc.release_owner()
    # The Source wakes the router on every injection push; a direct VC
    # push must do the same or the activity scheduler never steps it.
    router.wake()
    return packet, vc


def run_cycles(net, count, start=0):
    for c in range(start, start + count):
        net.step(c)
    return start + count


class TestPipelineTiming:
    def test_one_hop_worm_delivery(self):
        """head: alloc c0, ST c1, arrive+eject c1+LINK_DELAY."""
        net = network("roco")
        packet, _ = inject_worm(net, NodeId(0, 0), NodeId(1, 0), size=2)
        run_cycles(net, 10)
        assert packet.delivered_cycle == 2 + LINK_DELAY

    def test_generic_ejection_costs_extra_cycles(self):
        net_roco = network("roco")
        p_roco, _ = inject_worm(net_roco, NodeId(0, 0), NodeId(1, 0), size=2)
        run_cycles(net_roco, 12)

        net_gen = network("generic")
        p_gen, _ = inject_worm(net_gen, NodeId(0, 0), NodeId(1, 0), size=2)
        run_cycles(net_gen, 12)
        assert p_gen.delivered_cycle > p_roco.delivered_cycle

    def test_flits_depart_back_to_back(self):
        """A 4-flit worm streams at one flit per cycle once started."""
        net = network("roco")
        packet, _ = inject_worm(net, NodeId(0, 0), NodeId(2, 0), size=4)
        run_cycles(net, 20)
        # tail trails head by exactly size-1 cycles on an uncontended path
        assert packet.delivered_cycle is not None
        assert packet.flits_delivered == 4


class TestEarlyEjection:
    def test_early_eject_never_buffers_at_destination(self):
        net = network("roco")
        packet, _ = inject_worm(net, NodeId(0, 0), NodeId(1, 0), size=2)
        run_cycles(net, 10)
        dest_router = net.routers[NodeId(1, 0)]
        assert net.stats.activity.early_ejections == 2
        assert all(vc.empty for vc in dest_router.all_vcs())

    def test_eject_target_is_sentinel(self):
        net = network("roco")
        _, vc = inject_worm(net, NodeId(0, 0), NodeId(1, 0), size=2)
        net.step(0)  # allocation happens
        assert vc.out_vc is EJECT


class TestOwnershipHandover:
    def test_downstream_vc_owned_until_tail_launch(self):
        net = network("roco")
        packet, vc = inject_worm(net, NodeId(0, 0), NodeId(2, 0), size=3)
        net.step(0)
        target = vc.out_vc
        assert target.owner_pid == packet.pid
        run_cycles(net, 12, start=1)
        assert target.owner_pid is None
        assert packet.delivered_cycle is not None


class TestPurgeAndDrop:
    def test_drop_purges_and_restores_credits(self):
        net = network("roco")
        net.has_faults = True
        packet, vc = inject_worm(net, NodeId(0, 0), NodeId(3, 0), size=4)
        run_cycles(net, 3)  # worm is mid-flight
        net.drop_packet(packet, net.cycle)
        run_cycles(net, 20, start=3)
        final = net.cycle + 5
        for router in net.routers.values():
            for v in router.all_vcs():
                assert v.empty
                assert v.owner_pid is None
                assert v.credits(final) == v.effective_depth

    def test_stall_timeout_drops_packet(self):
        net = network("roco", fault_drop_timeout=10)
        net.has_faults = True
        # Kill the row module of the transit node: the eastbound worm
        # stalls at (1,0) and must be discarded after the timeout.
        net.routers[NodeId(2, 0)].row.dead = True
        net.wire()
        packet, _ = inject_worm(net, NodeId(0, 0), NodeId(3, 0), size=2)
        run_cycles(net, 60)
        assert packet.dropped_cycle is not None
        assert packet.delivered_cycle is None

    def test_no_drops_in_fault_free_network(self):
        net = network("roco", fault_drop_timeout=1)
        packet, _ = inject_worm(net, NodeId(0, 0), NodeId(3, 3), size=2)
        run_cycles(net, 40)
        assert packet.dropped_cycle is None
        assert packet.delivered_cycle is not None


class TestAcceptFlit:
    def test_dropped_in_flight_flit_refunds_slot(self):
        net = network("roco")
        net.has_faults = True
        packet, vc = inject_worm(net, NodeId(0, 0), NodeId(2, 0), size=4)
        net.step(0)
        net.step(1)  # first flit launched, now on the wire
        target = vc.out_vc
        before = target.credits(2) + target.occupancy
        net.drop_packet(packet, 1)
        run_cycles(net, 10, start=2)
        assert target.credits(net.cycle + 5) == target.effective_depth

    @pytest.mark.parametrize("fate", ["dropped", "dead"])
    def test_a_faulty_arrival_after_a_buffered_one_is_refused(self, fate):
        """Two heads land on one router in one cycle, North first: the
        West one's packet was dropped on the wire, or its VC died — it is
        not buffered behind the North one, whose VC is healthy."""
        net = network("generic")
        net.has_faults = True
        kept, _ = inject_worm(net, NodeId(1, 0), NodeId(1, 3), pid=0, size=2)
        lost, _ = inject_worm(net, NodeId(0, 1), NodeId(3, 1), pid=1, size=2)
        net.step(0)
        net.step(1)  # both heads on the wire towards (1, 1)
        centre = net.routers[NodeId(1, 1)]
        if fate == "dropped":
            net.drop_packet(lost, 1)
        else:
            for vc in centre.ports[Direction.WEST]:
                vc.dead = True
        landing = 1 + LINK_DELAY
        run_cycles(net, landing - 2, start=2)
        net.step_front(landing)
        assert centre._due_dirs == [Direction.NORTH, Direction.WEST]
        held = [f.packet for vc in centre.all_vcs() for f in vc.queue]
        assert held == [kept]
        assert lost.dropped_cycle is not None
        net.step_alloc(landing)
        run_cycles(net, 8, start=landing + 1)  # the rest of the worm lands
        for vc in centre.ports[Direction.WEST]:
            assert vc.empty and vc.expected == 0
            assert vc.credits(net.cycle) == vc.effective_depth
