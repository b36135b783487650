"""Table-3 reaction matrix, exhaustively parametrized.

Every (architecture, component, module) combination is checked against
the paper's fault-reaction table: generic and Path-Sensitive routers
lose the whole node on any fault; RoCo isolates one module on critical
faults and absorbs non-critical ones with hardware recycling.  One
engine imprints every fault; the matrix is asserted for a strike before
traffic moves and for one on a live network with worms in flight, the
neighbours' dead-port views are held to what wiring computes from
scratch, and the classification's recoverable set is checked for
consistency.
"""

import itertools

import pytest

from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.simulator import Simulator
from repro.core.types import NodeId
from repro.faults import (
    CLASSIFICATION,
    Component,
    ComponentFault,
    FaultSchedule,
    RuntimeFaultEngine,
    apply_faults,
    recovery_mechanism,
)
from repro.routers.roco.path_set import COLUMN, ROW

from .conftest import small_config

ARCHITECTURES = ("generic", "path_sensitive", "roco")
VICTIM = NodeId(1, 1)
#: The live strike lands here, with worms buffered across the mesh.
LIVE_CYCLE = 40

MATRIX = list(
    itertools.product(ARCHITECTURES, list(Component), (ROW, COLUMN))
)


def build_network(router):
    return Network(
        SimulationConfig(
            width=4, height=4, router=router, warmup_packets=0,
            measure_packets=10,
        )
    )


def inject_static(router, fault):
    network = build_network(router)
    network.wire()
    apply_faults(network, [fault])
    return network


def assert_reaction(network, architecture, fault):
    """The Table-3 reaction for ``fault`` on ``architecture``."""
    router = network.routers[fault.node]
    modules = getattr(router, "modules", None)
    if architecture != "roco":
        assert modules is None
        assert router.dead
        assert all(vc.dead for vc in router.all_vcs())
        return
    assert not router.dead  # RoCo never loses the whole node.
    struck = modules[fault.module]
    partner = modules[COLUMN if fault.module == ROW else ROW]
    if fault.component in (Component.VA, Component.CROSSBAR, Component.MUX_DEMUX):
        assert struck.dead
        assert all(vc.dead for vc in struck.all_vcs())
    else:
        assert not struck.dead
        assert all(not vc.dead for vc in struck.all_vcs())
    # Graceful degradation: the partner module always keeps serving.
    assert not partner.dead
    assert not partner.rc_faulty and not partner.sa_degraded
    assert struck.rc_faulty == (fault.component is Component.RC)
    assert struck.sa_degraded == (fault.component is Component.SA)
    faulty_vcs = [vc for vc in struck.all_vcs() if vc.faulty]
    if fault.component is Component.BUFFER:
        assert len(faulty_vcs) == 1
        assert faulty_vcs[0] is struck.all_vcs()[fault.vc_position]
        assert faulty_vcs[0].effective_depth == 1
    else:
        assert not faulty_vcs


@pytest.mark.parametrize("architecture,component,module", MATRIX)
def test_static_reaction_matrix(architecture, component, module):
    fault = ComponentFault(VICTIM, component, module=module, vc_position=2)
    network = inject_static(architecture, fault)
    assert network.has_faults
    assert_reaction(network, architecture, fault)


@pytest.mark.parametrize("architecture,component,module", MATRIX)
def test_runtime_reaction_matches_static(architecture, component, module):
    """A strike on a live network — salvage and severing at work —
    imprints the same Table-3 state as one before traffic moves."""
    fault = ComponentFault(VICTIM, component, module=module, vc_position=2)
    simulator = Simulator(
        small_config(router=architecture, injection_rate=0.3),
        schedule=FaultSchedule.at_cycle(LIVE_CYCLE, [fault]),
    )
    for cycle in range(LIVE_CYCLE):
        simulator.step(cycle)
    assert any(vc.queue for vc in simulator.network.routers[VICTIM].all_vcs())
    simulator.step(LIVE_CYCLE)
    assert simulator.faults == [fault]
    assert simulator.network.has_faults
    assert_reaction(simulator.network, architecture, fault)


@pytest.mark.parametrize("architecture,component,module", MATRIX)
def test_handshake_state_matches_static(architecture, component, module):
    """The engine leaves every dead-port view that wiring would compute."""
    fault = ComponentFault(VICTIM, component, module=module, vc_position=2)
    network = inject_static(architecture, fault)
    struck = {
        (node, direction): port.dead
        for node, router in network.routers.items()
        for direction, port in router.outputs.items()
    }
    network.wire()  # recomputes each port's dead flag from ``accepting``
    for (node, direction), dead in struck.items():
        assert network.routers[node].outputs[direction].dead == dead, (
            f"handshake mismatch at {node} towards {direction}"
        )


@pytest.mark.parametrize("architecture,component,module", MATRIX)
def test_is_recoverable_consistent_with_reaction(
    architecture, component, module
):
    """Only RoCo recovers, and only from faults that isolate no module:
    exactly the faults after which no module or node died."""
    fault = ComponentFault(VICTIM, component, module=module, vc_position=2)
    network = inject_static(architecture, fault)
    router = network.routers[VICTIM]
    modules = getattr(router, "modules", None)
    something_died = router.dead or (
        modules is not None and any(m.dead for m in modules.values())
    )
    recoverable = (
        architecture == "roco" and not CLASSIFICATION[component].blocks_roco_module
    )
    assert recoverable == (not something_died)


def test_every_component_names_a_recovery_mechanism():
    for component in Component:
        assert recovery_mechanism(component)


class TestRuntimeClearAndOverlap:
    """Transient healing reverses the imprint; overlaps reference-count."""

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    @pytest.mark.parametrize("component", list(Component))
    def test_clear_restores_pristine_state(self, architecture, component):
        fault = ComponentFault(VICTIM, component, module=ROW, vc_position=2)
        network = build_network(architecture)
        network.wire()
        engine = RuntimeFaultEngine(network)
        engine.apply(fault, cycle=10)
        engine.clear(fault, cycle=60)
        router = network.routers[VICTIM]
        assert not router.dead
        assert all(not vc.dead for vc in router.all_vcs())
        modules = getattr(router, "modules", None)
        if modules is not None:
            for module in modules.values():
                assert not module.dead
                assert not module.rc_faulty and not module.sa_degraded
            assert all(not vc.faulty for vc in router.all_vcs())
        # Neighbour handshake views are healed too.
        for node in network.nodes:
            for port in network.routers[node].outputs.values():
                assert not port.dead

    @pytest.mark.parametrize(
        "component", [Component.VA, Component.RC, Component.SA, Component.BUFFER]
    )
    def test_transient_expiry_under_permanent_keeps_fault(self, component):
        """Refcounting: an expiring transient cannot heal a permanent."""
        fault = ComponentFault(VICTIM, component, module=ROW, vc_position=1)
        network = build_network("roco")
        network.wire()
        engine = RuntimeFaultEngine(network)
        engine.apply(fault, cycle=10)   # permanent
        engine.apply(fault, cycle=20)   # overlapping transient
        engine.clear(fault, cycle=50)   # transient expires
        module = network.routers[VICTIM].modules[ROW]
        if component is Component.VA:
            assert module.dead
        elif component is Component.RC:
            assert module.rc_faulty
        elif component is Component.SA:
            assert module.sa_degraded
        else:
            vcs = module.all_vcs()
            assert vcs[1].faulty
        engine.clear(fault, cycle=90)   # the "permanent" released too
        assert not module.dead
        assert not module.rc_faulty and not module.sa_degraded
        assert all(not vc.faulty for vc in module.all_vcs())

    def test_apply_reports_topology_change(self):
        network = build_network("roco")
        network.wire()
        engine = RuntimeFaultEngine(network)
        critical = ComponentFault(VICTIM, Component.VA, module=ROW)
        soft = ComponentFault(VICTIM, Component.RC, module=COLUMN)
        assert engine.apply(critical, cycle=0) is True
        assert engine.apply(critical, cycle=1) is False  # already dead
        assert engine.apply(soft, cycle=2) is False      # no kill
        assert engine.clear(critical, cycle=3) is False  # one ref remains
        assert engine.clear(critical, cycle=4) is True   # module revives
