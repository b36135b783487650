"""Structural unit tests for the three router architectures."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.types import Direction, NodeId, Packet
from repro.routers import EJECT, ROUTER_CLASSES
from repro.routers.generic import GENERIC_PORTS
from repro.routers.path_sensitive import QUADRANTS, quadrant_of
from repro.routers.roco.router import classify_vc


def network(router="roco", routing="xy", k=4):
    net = Network(SimulationConfig(width=k, height=k, router=router, routing=routing))
    net.wire()
    return net


def packet(src, dest, pid=0):
    return Packet(pid=pid, src=src, dest=dest, size=4, created_cycle=0)


@pytest.mark.parametrize("architecture", sorted(ROUTER_CLASSES))
def test_allocate_is_defined_by_each_router_class(architecture):
    """perfbench's ``Tracer.wrap_method`` wraps ``allocate`` only on a
    class that defines it and skips an inherited one silently: hoisting
    it into ``BaseRouter`` would lose the ``routers.<arch>.allocate``
    spans."""
    assert "allocate" in vars(ROUTER_CLASSES[architecture])


class TestGenericStructure:
    def test_fifteen_vcs(self):
        net = network("generic")
        router = net.routers[NodeId(1, 1)]
        assert len(router.all_vcs()) == 5 * 3

    def test_ports_cover_all_directions(self):
        net = network("generic")
        router = net.routers[NodeId(1, 1)]
        assert set(router.ports) == set(GENERIC_PORTS)

    def test_border_router_has_fewer_outputs(self):
        net = network("generic")
        corner = net.routers[NodeId(0, 0)]
        assert set(corner.outputs) == {Direction.EAST, Direction.SOUTH}

    def test_vc_candidates_exposes_input_port(self):
        net = network("generic")
        router = net.routers[NodeId(1, 1)]
        cands = router.vc_candidates(Direction.WEST, packet(NodeId(0, 1), NodeId(3, 1)))
        assert len(cands) == 3
        assert all(route is None for _, route in cands)

    def test_escape_only_returns_vc0(self):
        net = network("generic", routing="adaptive")
        router = net.routers[NodeId(1, 1)]
        cands = router.vc_candidates(
            Direction.WEST, packet(NodeId(0, 1), NodeId(3, 3)), escape_only=True
        )
        assert len(cands) == 1
        assert cands[0][0].escape

    def test_dead_router_admits_nothing(self):
        net = network("generic")
        router = net.routers[NodeId(1, 1)]
        router.dead = True
        assert (
            router.vc_candidates(
                Direction.WEST, packet(NodeId(0, 1), NodeId(3, 1))
            )
            == []
        )
        assert router.injection_vc_for(packet(NodeId(1, 1), NodeId(3, 1))) is None


class TestPathSensitiveStructure:
    def test_twelve_vcs_in_four_sets(self):
        net = network("path_sensitive")
        router = net.routers[NodeId(1, 1)]
        assert len(router.all_vcs()) == 12
        assert set(router.path_sets) == set(QUADRANTS)

    def test_early_ejection_candidate(self):
        net = network("path_sensitive")
        router = net.routers[NodeId(2, 2)]
        cands = router.vc_candidates(Direction.WEST, packet(NodeId(0, 2), NodeId(2, 2)))
        assert cands == [(EJECT, Direction.LOCAL)]

    def test_candidates_land_in_destination_quadrant(self):
        net = network("path_sensitive")
        router = net.routers[NodeId(1, 1)]
        p = packet(NodeId(0, 1), NodeId(3, 3))  # dest is SE of (1,1)
        for vc, route in router.vc_candidates(Direction.WEST, p):
            assert vc.vc_class == "SE"

    def test_quadrant_of_diagonals(self):
        assert quadrant_of(NodeId(2, 2), NodeId(3, 1)) == "NE"
        assert quadrant_of(NodeId(2, 2), NodeId(0, 0)) == "NW"
        assert quadrant_of(NodeId(2, 2), NodeId(3, 3)) == "SE"
        assert quadrant_of(NodeId(2, 2), NodeId(1, 3)) == "SW"

    def test_quadrant_of_axis_respects_arrival(self):
        """A pure-South flit arriving from the West must use SE."""
        assert quadrant_of(NodeId(2, 2), NodeId(2, 3), Direction.WEST) == "SE"
        assert quadrant_of(NodeId(2, 2), NodeId(2, 3), Direction.EAST) == "SW"
        assert quadrant_of(NodeId(2, 2), NodeId(2, 0), Direction.WEST) == "NE"
        assert quadrant_of(NodeId(2, 2), NodeId(2, 0), Direction.EAST) == "NW"

    def test_quadrant_of_self_rejected(self):
        with pytest.raises(ValueError):
            quadrant_of(NodeId(1, 1), NodeId(1, 1))

    def test_every_minimal_arrival_admissible(self):
        """Any (arrival, destination) pair minimal routing can produce
        must find an admitting VC (a flit arriving from the North is
        travelling south, so its destination cannot lie further north)."""
        net = network("path_sensitive")
        router = net.routers[NodeId(1, 1)]
        node = router.node
        feasible = {
            Direction.NORTH: lambda d: d.y > node.y
            or (d.y == node.y and d.x != node.x),
            Direction.SOUTH: lambda d: d.y < node.y
            or (d.y == node.y and d.x != node.x),
            Direction.WEST: lambda d: d.x > node.x
            or (d.x == node.x and d.y != node.y),
            Direction.EAST: lambda d: d.x < node.x
            or (d.x == node.x and d.y != node.y),
        }
        for arrival, ok in feasible.items():
            for dest in net.nodes:
                if dest == node or not ok(dest):
                    continue
                p = packet(node.neighbor(arrival), dest)
                cands = router.vc_candidates(arrival, p)
                assert cands, f"no admission from {arrival.name} to {dest}"


class TestRoCoStructure:
    def test_twelve_vcs_two_modules(self):
        net = network("roco")
        router = net.routers[NodeId(1, 1)]
        assert len(router.all_vcs()) == 12
        assert len(router.row.all_vcs()) == 6
        assert len(router.column.all_vcs()) == 6

    def test_module_for(self):
        net = network("roco")
        router = net.routers[NodeId(1, 1)]
        assert router.module_for(Direction.EAST) is router.row
        assert router.module_for(Direction.WEST) is router.row
        assert router.module_for(Direction.NORTH) is router.column
        assert router.module_for(Direction.SOUTH) is router.column

    def test_classify_vc(self):
        assert classify_vc(Direction.WEST, Direction.EAST) == "dx"
        assert classify_vc(Direction.WEST, Direction.SOUTH) == "txy"
        assert classify_vc(Direction.NORTH, Direction.SOUTH) == "dy"
        assert classify_vc(Direction.NORTH, Direction.EAST) == "tyx"
        assert classify_vc(Direction.LOCAL, Direction.EAST) == "injxy"
        assert classify_vc(Direction.LOCAL, Direction.NORTH) == "injyx"

    def test_early_ejection_candidate(self):
        net = network("roco")
        router = net.routers[NodeId(2, 2)]
        cands = router.vc_candidates(
            Direction.NORTH, packet(NodeId(2, 0), NodeId(2, 2))
        )
        assert cands == [(EJECT, Direction.LOCAL)]

    def test_guided_queuing_commits_route(self):
        """Every candidate pairs a VC with the committed route here."""
        net = network("roco")
        router = net.routers[NodeId(1, 1)]
        p = packet(NodeId(0, 1), NodeId(3, 1))  # straight East
        cands = router.vc_candidates(Direction.WEST, p)
        assert cands
        for vc, route in cands:
            assert route is Direction.EAST
            assert vc.vc_class == "dx"

    def test_turning_flit_goes_to_column_module(self):
        net = network("roco")
        router = net.routers[NodeId(2, 2)]
        p = packet(NodeId(0, 2), NodeId(2, 3))  # turns south here
        cands = router.vc_candidates(Direction.WEST, p)
        assert cands
        for vc, route in cands:
            assert route is Direction.SOUTH
            assert vc.vc_class == "txy"

    def test_injection_commits_first_direction(self):
        net = network("roco")
        router = net.routers[NodeId(1, 1)]
        vc, route = router.injection_vc_for(packet(NodeId(1, 1), NodeId(3, 1)))
        assert vc.vc_class == "injxy"
        assert route is Direction.EAST
        vc, route = router.injection_vc_for(packet(NodeId(1, 1), NodeId(1, 3)))
        assert vc.vc_class == "injyx"
        assert route is Direction.SOUTH

    def test_dead_module_removes_candidates(self):
        net = network("roco")
        router = net.routers[NodeId(1, 1)]
        router.row.dead = True
        p = packet(NodeId(0, 1), NodeId(3, 1))  # needs the row module
        assert router.vc_candidates(Direction.WEST, p) == []
        # Column traffic still admitted.
        q = packet(NodeId(1, 0), NodeId(1, 3))
        assert router.vc_candidates(Direction.NORTH, q)

    def test_dead_module_blocks_injection_of_that_dimension(self):
        net = network("roco")
        router = net.routers[NodeId(1, 1)]
        router.row.dead = True
        p = packet(NodeId(1, 1), NodeId(3, 1))  # XY: must start in X
        assert not router.injection_possible(p)
        q = packet(NodeId(1, 1), NodeId(1, 3))  # same column: starts in Y
        assert router.injection_possible(q)

    def test_early_ejection_survives_dead_module(self):
        """Graceful degradation: arrivals still eject with one module dead."""
        net = network("roco")
        router = net.routers[NodeId(2, 2)]
        router.row.dead = True
        cands = router.vc_candidates(
            Direction.NORTH, packet(NodeId(2, 0), NodeId(2, 2))
        )
        assert cands == [(EJECT, Direction.LOCAL)]
