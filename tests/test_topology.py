"""Tests for the mesh/torus topology abstraction and dateline classes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.topology import (
    MeshTopology,
    TorusTopology,
    make_topology,
    ring_direction,
    ring_distance,
    torus_ring_class,
)
from repro.core.types import Direction, NodeId

from .conftest import run_small


class TestMeshTopology:
    def test_border_has_no_neighbor(self):
        mesh = MeshTopology(4, 4)
        assert mesh.neighbor(NodeId(0, 0), Direction.WEST) is None
        assert mesh.neighbor(NodeId(3, 3), Direction.SOUTH) is None

    def test_interior_neighbor(self):
        mesh = MeshTopology(4, 4)
        assert mesh.neighbor(NodeId(1, 1), Direction.EAST) == NodeId(2, 1)

    def test_distance_is_manhattan(self):
        mesh = MeshTopology(8, 8)
        assert mesh.distance(NodeId(0, 0), NodeId(7, 7)) == 14


class TestTorusTopology:
    def test_wraparound_neighbors(self):
        torus = TorusTopology(4, 4)
        assert torus.neighbor(NodeId(0, 0), Direction.WEST) == NodeId(3, 0)
        assert torus.neighbor(NodeId(3, 3), Direction.SOUTH) == NodeId(3, 0)
        assert torus.neighbor(NodeId(3, 1), Direction.EAST) == NodeId(0, 1)

    def test_distance_uses_shorter_way(self):
        torus = TorusTopology(8, 8)
        assert torus.distance(NodeId(0, 0), NodeId(7, 0)) == 1
        assert torus.distance(NodeId(0, 0), NodeId(4, 0)) == 4
        assert torus.distance(NodeId(0, 0), NodeId(7, 7)) == 2

    @given(st.integers(3, 9), st.integers(0, 8), st.integers(0, 8))
    def test_distance_never_exceeds_mesh(self, k, ax, bx):
        ax, bx = ax % k, bx % k
        assert ring_distance(ax, bx, k) <= abs(ax - bx)

    def test_factory(self):
        assert make_topology("mesh", 4, 4).name == "mesh"
        assert make_topology("torus", 4, 4).name == "torus"
        with pytest.raises(ValueError):
            make_topology("hypercube", 4, 4)


class TestRingDirection:
    def test_shorter_way_wins(self):
        # 0 -> 6 on an 8-ring: backward (west) is shorter.
        assert (
            ring_direction(0, 6, 8, Direction.EAST, Direction.WEST)
            is Direction.WEST
        )
        assert (
            ring_direction(0, 2, 8, Direction.EAST, Direction.WEST)
            is Direction.EAST
        )

    def test_tie_goes_positive(self):
        assert (
            ring_direction(0, 4, 8, Direction.EAST, Direction.WEST)
            is Direction.EAST
        )

    def test_aligned_returns_none(self):
        assert ring_direction(3, 3, 8, Direction.EAST, Direction.WEST) is None

    @given(st.integers(3, 10), st.integers(0, 9), st.integers(0, 9))
    def test_following_direction_reaches_destination(self, k, a, b):
        a, b = a % k, b % k
        cur, steps = a, 0
        while cur != b:
            d = ring_direction(cur, b, k, Direction.EAST, Direction.WEST)
            cur = (cur + 1) % k if d is Direction.EAST else (cur - 1) % k
            steps += 1
            assert steps <= k
        assert steps == ring_distance(a, b, k)


class TestDatelineClass:
    def test_non_wrapping_path_stays_class_zero(self):
        # 1 -> 3 eastward on an 8-ring never wraps.
        for cur in (1, 2, 3):
            assert torus_ring_class(1, cur, 3, 8) == 0

    def test_wrapping_path_switches_class(self):
        # 6 -> 2 on an 8-ring goes east through the 7->0 wrap.
        assert torus_ring_class(6, 6, 2, 8) == 0
        assert torus_ring_class(6, 7, 2, 8) == 0
        assert torus_ring_class(6, 0, 2, 8) == 1
        assert torus_ring_class(6, 1, 2, 8) == 1

    def test_westward_wrap(self):
        # 1 -> 6 on an 8-ring goes west through the 0->7 wrap.
        assert torus_ring_class(1, 1, 6, 8) == 0
        assert torus_ring_class(1, 0, 6, 8) == 0
        assert torus_ring_class(1, 7, 6, 8) == 1

    @given(st.integers(3, 10), st.integers(0, 9), st.integers(0, 9))
    def test_class_is_monotone_along_the_path(self, k, src, dest):
        src, dest = src % k, dest % k
        cur = src
        classes = []
        steps = 0
        while cur != dest:
            classes.append(torus_ring_class(src, cur, dest, k))
            d = ring_direction(cur, dest, k, Direction.EAST, Direction.WEST)
            cur = (cur + 1) % k if d is Direction.EAST else (cur - 1) % k
            steps += 1
            assert steps <= k
        # The class never decreases: once across the dateline, stay in 1.
        assert classes == sorted(classes)
        assert all(c in (0, 1) for c in classes)


class TestTorusSimulation:
    def test_full_delivery_on_torus(self):
        result = run_small(
            topology="torus", router="generic", injection_rate=0.10
        )
        assert result.completion_probability == 1.0

    def test_torus_beats_mesh_on_uniform_latency(self):
        """Wraparound halves average distance, so the same load must be
        faster on the torus."""
        mesh = run_small(router="generic", injection_rate=0.10)
        torus = run_small(
            topology="torus", router="generic", injection_rate=0.10
        )
        assert torus.average_hops < mesh.average_hops
        assert torus.average_latency < mesh.average_latency

    def test_torus_sustains_higher_load(self):
        result = run_small(
            topology="torus",
            router="generic",
            injection_rate=0.30,
            measure_packets=400,
        )
        assert result.completion_probability == 1.0

    def test_torus_validation(self):
        from repro.core.config import RouterConfig, SimulationConfig

        with pytest.raises(ValueError):
            SimulationConfig(topology="torus", router="roco")
        with pytest.raises(ValueError, match="3 VCs per port"):
            SimulationConfig(topology="torus", router="generic",
                             router_config=RouterConfig(vcs_per_port=2))
        with pytest.raises(ValueError):
            SimulationConfig(topology="torus", router="generic", routing="adaptive")
        with pytest.raises(ValueError):
            SimulationConfig(topology="donut")

    def test_every_node_has_four_outputs(self):
        from repro.core.config import SimulationConfig
        from repro.core.network import Network

        net = Network(
            SimulationConfig(
                width=4, height=4, topology="torus", router="generic"
            )
        )
        for router in net.routers.values():
            assert len(router.outputs) == 4
