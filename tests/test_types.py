"""Unit tests for the fundamental data types."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import types
from repro.core.types import (
    CARDINALS,
    Direction,
    FlitType,
    NodeId,
    Packet,
    RoutingMode,
    make_packet_flits,
)


class TestDirection:
    def test_opposites_are_involutive(self):
        for d in Direction:
            assert d.opposite.opposite is d

    def test_cardinal_opposites(self):
        assert Direction.NORTH.opposite is Direction.SOUTH
        assert Direction.EAST.opposite is Direction.WEST
        assert Direction.LOCAL.opposite is Direction.LOCAL

    def test_row_column_partition(self):
        rows = [d for d in CARDINALS if d.is_row]
        columns = [d for d in CARDINALS if d.is_column]
        assert set(rows) == {Direction.EAST, Direction.WEST}
        assert set(columns) == {Direction.NORTH, Direction.SOUTH}

    def test_local_is_neither_row_nor_column(self):
        assert not Direction.LOCAL.is_row
        assert not Direction.LOCAL.is_column

    def test_direction_values_are_stable(self):
        assert [int(d) for d in CARDINALS] == [0, 1, 2, 3]

    def test_member_attributes_equal_the_old_properties(self):
        """``opposite``, ``is_row`` and ``is_column`` are plain member
        attributes now; each equals the property it replaced."""
        for d in Direction:
            old_opposite = (
                Direction.LOCAL if d is Direction.LOCAL else Direction((d + 2) % 4)
            )
            assert d.opposite is old_opposite
            assert d.is_row is (d in (Direction.EAST, Direction.WEST))
            assert d.is_column is (d in (Direction.NORTH, Direction.SOUTH))
            assert {"opposite", "is_row", "is_column"} <= set(vars(d))
        assert not [n for n, v in vars(Direction).items() if isinstance(v, property)]
        assert not hasattr(types, "OPPOSITE")

    def test_module_constants_are_the_members(self):
        for enum in (Direction, FlitType, RoutingMode):
            for name, member in enum.__members__.items():
                assert getattr(types, name) is member


class TestNodeId:
    def test_neighbors(self):
        n = NodeId(3, 3)
        assert n.neighbor(Direction.NORTH) == NodeId(3, 2)
        assert n.neighbor(Direction.SOUTH) == NodeId(3, 4)
        assert n.neighbor(Direction.EAST) == NodeId(4, 3)
        assert n.neighbor(Direction.WEST) == NodeId(2, 3)
        assert n.neighbor(Direction.LOCAL) == n

    def test_hashable_and_equal(self):
        assert NodeId(1, 2) == NodeId(1, 2)
        assert len({NodeId(1, 2), NodeId(1, 2), NodeId(2, 1)}) == 2

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_neighbor_roundtrip(self, x, y):
        n = NodeId(x, y)
        for d in CARDINALS:
            assert n.neighbor(d).neighbor(d.opposite) == n

    def test_str(self):
        assert str(NodeId(2, 5)) == "(2,5)"

    def test_repr_hash_and_pickle(self):
        """A tuple now, with the dataclass's repr and hash: no dict or set
        keyed by nodes changes order."""
        n = NodeId(3, -1)
        assert repr(n) == "NodeId(x=3, y=-1)"
        assert hash(n) == hash((3, -1))
        assert (n.x, n.y) == (3, -1) and NodeId(x=3, y=-1) == n
        back = pickle.loads(pickle.dumps(n))
        assert back == n and type(back) is NodeId
        assert back.neighbor(Direction.SOUTH) == NodeId(3, 0)


def _packet(size=4, pid=0):
    return Packet(
        pid=pid, src=NodeId(0, 0), dest=NodeId(3, 3), size=size, created_cycle=0
    )


class TestPacketAndFlits:
    def test_worm_structure(self):
        flits = make_packet_flits(_packet(4))
        assert [f.ftype for f in flits] == [
            FlitType.HEAD,
            FlitType.BODY,
            FlitType.BODY,
            FlitType.TAIL,
        ]
        assert [f.seq for f in flits] == [0, 1, 2, 3]

    def test_two_flit_packet(self):
        flits = make_packet_flits(_packet(2))
        assert flits[0].is_head and flits[1].closes_worm

    def test_single_flit_packet_is_head_and_tail(self):
        (flit,) = make_packet_flits(_packet(1))
        assert flit.is_head
        assert flit.closes_worm

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            make_packet_flits(_packet(0))

    def test_latency_requires_delivery(self):
        p = _packet()
        with pytest.raises(ValueError):
            _ = p.latency
        p.delivered_cycle = 42
        assert p.latency == 42

    def test_flit_carries_packet_endpoints(self):
        flits = make_packet_flits(_packet())
        assert flits[0].src == NodeId(0, 0)
        assert flits[0].dest == NodeId(3, 3)

    @given(st.integers(1, 12))
    def test_exactly_one_tail_per_worm(self, size):
        flits = make_packet_flits(_packet(size))
        assert sum(1 for f in flits if f.closes_worm) == 1
        assert flits[-1].closes_worm
