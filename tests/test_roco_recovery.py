"""Unit tests for RoCo's hardware-recycling recovery behaviours (Section 4)."""

from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.simulator import run_simulation
from repro.core.types import NodeId
from repro.faults import Component, ComponentFault, apply_faults
from repro.routers.roco.path_set import COLUMN, ROW

from .conftest import small_config
from .test_base_router import inject_worm, run_cycles


def faulty_network(fault, **overrides):
    params = {
        "width": 4,
        "height": 4,
        "router": "roco",
        "warmup_packets": 0,
        "measure_packets": 10,
    }
    params.update(overrides)
    net = Network(SimulationConfig(**params))
    apply_faults(net, [fault])
    net.wire()
    net.stats.start_measurement(0)
    return net


class TestDoubleRouting:
    def test_rc_fault_delays_heads_by_one_cycle(self):
        clean = faulty_network(
            ComponentFault(NodeId(1, 0), Component.SA, module=COLUMN)
        )
        # The column SA fault does not touch the row path used below.
        p_clean, _ = inject_worm(clean, NodeId(0, 0), NodeId(3, 0), size=2)
        run_cycles(clean, 30)

        rc = faulty_network(ComponentFault(NodeId(1, 0), Component.RC, module=ROW))
        p_rc, _ = inject_worm(rc, NodeId(0, 0), NodeId(3, 0), size=2)
        run_cycles(rc, 30)

        assert p_clean.delivered_cycle is not None
        assert p_rc.delivered_cycle is not None
        # Exactly one transit router (1,0) pays the double-routing cycle.
        assert p_rc.delivered_cycle == p_clean.delivered_cycle + 1

    def test_rc_fault_does_not_lose_traffic(self):
        net = faulty_network(ComponentFault(NodeId(1, 1), Component.RC, module=ROW))
        packet, _ = inject_worm(net, NodeId(0, 1), NodeId(3, 1), size=4)
        run_cycles(net, 40)
        assert packet.delivered_cycle is not None


class TestVirtualQueuing:
    def test_faulty_buffer_still_carries_traffic(self):
        fault = ComponentFault(
            NodeId(1, 0), Component.BUFFER, module=ROW, vc_position=0
        )
        net = faulty_network(fault)
        packet, _ = inject_worm(net, NodeId(0, 0), NodeId(3, 0), size=4)
        run_cycles(net, 60)
        assert packet.delivered_cycle is not None

    def test_virtual_queuing_penalty_on_faulty_vc(self):
        """Flits entering the degraded buffer wait out the handshake."""
        fault = ComponentFault(
            NodeId(1, 0), Component.BUFFER, module=ROW, vc_position=0
        )
        net = faulty_network(fault)
        router = net.routers[NodeId(1, 0)]
        faulty = [vc for vc in router.all_vcs() if vc.faulty]
        assert len(faulty) == 1
        packet, _ = inject_worm(net, NodeId(0, 0), NodeId(3, 0), size=1)
        run_cycles(net, 60)
        assert packet.delivered_cycle is not None

    def test_full_run_with_buffer_faults_completes(self):
        faults = [
            ComponentFault(NodeId(1, 1), Component.BUFFER, module=ROW, vc_position=i)
            for i in range(2)
        ]
        config = small_config(router="roco", measure_packets=150)
        result = run_simulation(config, faults=faults)
        assert result.completion_probability == 1.0


class TestSAOffloading:
    def test_sa_degraded_module_still_delivers(self):
        fault = ComponentFault(NodeId(1, 0), Component.SA, module=ROW)
        net = faulty_network(fault)
        packet, _ = inject_worm(net, NodeId(0, 0), NodeId(3, 0), size=4)
        run_cycles(net, 80)
        assert packet.delivered_cycle is not None

    def test_sa_degradation_costs_latency(self):
        config = small_config(router="roco", injection_rate=0.15, measure_packets=200)
        clean = run_simulation(config)
        faults = [
            ComponentFault(NodeId(x, y), Component.SA, module=ROW)
            for x, y in ((1, 1), (2, 1), (1, 2), (2, 2))
        ]
        degraded = run_simulation(config, faults=faults)
        assert degraded.completion_probability == 1.0
        assert degraded.average_latency > clean.average_latency


class TestModuleIsolation:
    def test_row_fault_keeps_column_service(self):
        """The paper's headline: partial operation in one dimension."""
        fault = ComponentFault(NodeId(1, 1), Component.CROSSBAR, module=ROW)
        net = faulty_network(fault)
        packet, _ = inject_worm(net, NodeId(1, 0), NodeId(1, 3), size=4)
        run_cycles(net, 40)
        assert packet.delivered_cycle is not None

    def test_row_fault_blocks_row_transit(self):
        fault = ComponentFault(NodeId(1, 0), Component.CROSSBAR, module=ROW)
        net = faulty_network(fault, fault_drop_timeout=15)
        packet, _ = inject_worm(net, NodeId(0, 0), NodeId(3, 0), size=2)
        run_cycles(net, 80)
        assert packet.delivered_cycle is None
        assert packet.dropped_cycle is not None

    def test_destination_with_dead_module_still_ejects(self):
        fault = ComponentFault(NodeId(2, 0), Component.VA, module=ROW)
        net = faulty_network(fault)
        # Approach from the north: the column module and early ejection
        # at (2,0) are untouched by the row-module fault.
        packet, _ = inject_worm(net, NodeId(2, 3), NodeId(2, 0), size=2)
        run_cycles(net, 40)
        assert packet.delivered_cycle is not None
