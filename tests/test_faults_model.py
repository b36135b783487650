"""Unit tests for the fault taxonomy and injector (Table 3, Section 4)."""

import random

import pytest

from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.types import NodeId
from repro.faults import (
    CLASSIFICATION,
    CRITICAL_FAULT_COMPONENTS,
    NONCRITICAL_FAULT_COMPONENTS,
    Centricity,
    Component,
    ComponentFault,
    Pathway,
    Regime,
    apply_faults,
    random_faults,
)
from repro.faults.recovery import recovery_mechanism
from repro.routers.roco.path_set import COLUMN, ROW


class TestTable3Classification:
    def test_every_component_classified(self):
        assert set(CLASSIFICATION) == set(Component)

    def test_per_packet_components(self):
        """RC and VA only touch header flits (Section 4.1)."""
        assert CLASSIFICATION[Component.RC].regime is Regime.PER_PACKET
        assert CLASSIFICATION[Component.VA].regime is Regime.PER_PACKET
        for c in (Component.SA, Component.BUFFER, Component.CROSSBAR):
            assert CLASSIFICATION[c].regime is Regime.PER_FLIT

    def test_centricity(self):
        assert CLASSIFICATION[Component.RC].centricity is Centricity.MESSAGE
        assert CLASSIFICATION[Component.BUFFER].centricity is Centricity.MESSAGE
        assert CLASSIFICATION[Component.MUX_DEMUX].centricity is Centricity.MESSAGE
        assert CLASSIFICATION[Component.VA].centricity is Centricity.ROUTER
        assert CLASSIFICATION[Component.SA].centricity is Centricity.ROUTER
        assert CLASSIFICATION[Component.CROSSBAR].centricity is Centricity.ROUTER

    def test_critical_pathway(self):
        assert CLASSIFICATION[Component.CROSSBAR].pathway is Pathway.CRITICAL
        assert CLASSIFICATION[Component.MUX_DEMUX].pathway is Pathway.CRITICAL
        for c in (Component.RC, Component.VA, Component.SA, Component.BUFFER):
            assert CLASSIFICATION[c].pathway is Pathway.NON_CRITICAL

    def test_module_blocking_components(self):
        """VA, crossbar and MUX/DEMUX faults isolate a RoCo module."""
        blocking = {
            c for c in Component if CLASSIFICATION[c].blocks_roco_module
        }
        assert blocking == {Component.VA, Component.CROSSBAR, Component.MUX_DEMUX}

    def test_fault_populations_are_disjoint_and_complete(self):
        assert set(CRITICAL_FAULT_COMPONENTS) | set(
            NONCRITICAL_FAULT_COMPONENTS
        ) == set(Component)
        assert not set(CRITICAL_FAULT_COMPONENTS) & set(NONCRITICAL_FAULT_COMPONENTS)


class TestRecoveryMapping:
    def test_every_component_has_a_mechanism(self):
        for component in Component:
            assert recovery_mechanism(component)

    def test_recycled_components_are_the_non_blocking_ones(self):
        """RC, SA and buffer faults are recycled; every other fault
        isolates its RoCo module, as Table 3 classifies it."""
        recycled = {
            c for c in Component if "isolation" not in recovery_mechanism(c)
        }
        assert recycled == {Component.RC, Component.SA, Component.BUFFER}
        assert recycled == {
            c for c in Component if not CLASSIFICATION[c].blocks_roco_module
        }

    def test_mechanism_descriptions(self):
        assert "double routing" in recovery_mechanism(Component.RC)
        assert "virtual queuing" in recovery_mechanism(Component.BUFFER).lower()
        assert "VA" in recovery_mechanism(Component.SA)
        assert "isolation" in recovery_mechanism(Component.CROSSBAR)


def _nodes(k=4):
    return [NodeId(x, y) for y in range(k) for x in range(k)]


class TestRandomFaults:
    def test_distinct_routers(self):
        faults = random_faults(_nodes(), 5, random.Random(3), critical=True)
        assert len({f.node for f in faults}) == 5

    def test_population_respects_class(self):
        rng = random.Random(3)
        for f in random_faults(_nodes(), 8, rng, critical=True):
            assert f.component in CRITICAL_FAULT_COMPONENTS
        for f in random_faults(_nodes(), 8, rng, critical=False):
            assert f.component in NONCRITICAL_FAULT_COMPONENTS

    def test_too_many_faults_rejected(self):
        with pytest.raises(ValueError):
            random_faults(_nodes(2), 5, random.Random(0), critical=True)

    def test_exclusion(self):
        exclude = {NodeId(0, 0)}
        faults = random_faults(
            _nodes(2), 3, random.Random(0), critical=True, exclude=exclude
        )
        assert NodeId(0, 0) not in {f.node for f in faults}

    def test_deterministic_for_seed(self):
        a = random_faults(_nodes(), 4, random.Random(9), critical=False)
        b = random_faults(_nodes(), 4, random.Random(9), critical=False)
        assert a == b


class TestApplyFaults:
    def _network(self, router):
        return Network(SimulationConfig(width=4, height=4, router=router))

    def test_generic_node_goes_offline(self):
        net = self._network("generic")
        apply_faults(net, [ComponentFault(NodeId(1, 1), Component.RC)])
        assert net.routers[NodeId(1, 1)].dead
        assert net.has_faults

    def test_roco_critical_fault_kills_one_module(self):
        net = self._network("roco")
        fault = ComponentFault(NodeId(2, 2), Component.CROSSBAR, module=ROW)
        apply_faults(net, [fault])
        router = net.routers[NodeId(2, 2)]
        assert router.row.dead and not router.column.dead
        assert not router.dead

    def test_roco_rc_fault_sets_double_routing(self):
        net = self._network("roco")
        apply_faults(net, [ComponentFault(NodeId(0, 3), Component.RC, module=COLUMN)])
        assert net.routers[NodeId(0, 3)].column.rc_faulty

    def test_roco_sa_fault_degrades(self):
        net = self._network("roco")
        apply_faults(net, [ComponentFault(NodeId(3, 0), Component.SA, module=ROW)])
        assert net.routers[NodeId(3, 0)].row.sa_degraded

    def test_roco_buffer_fault_enables_virtual_queuing(self):
        net = self._network("roco")
        fault = ComponentFault(
            NodeId(1, 2), Component.BUFFER, module=COLUMN, vc_position=2
        )
        apply_faults(net, [fault])
        router = net.routers[NodeId(1, 2)]
        faulty = [vc for vc in router.column.all_vcs() if vc.faulty]
        assert len(faulty) == 1
        assert faulty[0].effective_depth == 1

    def test_no_faults_is_noop(self):
        net = self._network("roco")
        apply_faults(net, [])
        assert not net.has_faults
