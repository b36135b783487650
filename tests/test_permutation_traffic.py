"""Tests for the bit-permutation traffic patterns."""

import random

import pytest

from repro.core.config import SimulationConfig
from repro.core.types import NodeId
from repro.traffic import (
    BitComplementTraffic,
    BitReverseTraffic,
    ShuffleTraffic,
    make_traffic,
)

from .conftest import run_small


def bind(pattern, k=4):
    config = SimulationConfig(width=k, height=k, injection_rate=0.1)
    nodes = [NodeId(x, y) for y in range(k) for x in range(k)]
    pattern.bind(config, random.Random(1), nodes)
    return pattern, nodes


class TestBitComplement:
    def test_corner_maps_to_opposite_corner(self):
        pattern, _ = bind(BitComplementTraffic())
        assert pattern.destination(NodeId(0, 0)) == NodeId(3, 3)
        assert pattern.destination(NodeId(3, 3)) == NodeId(0, 0)

    def test_is_an_involution(self):
        pattern, nodes = bind(BitComplementTraffic())
        for node in nodes:
            dest = pattern.destination(node)
            assert pattern.destination(dest) == node

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two node count, got 9"):
            SimulationConfig(width=3, height=3, traffic="bit_complement")


class TestBitReverse:
    def test_known_mapping(self):
        # 4x4 -> 4 bits. Node (1,0) = index 1 = 0b0001 -> 0b1000 = 8 = (0,2).
        pattern, _ = bind(BitReverseTraffic())
        assert pattern.destination(NodeId(1, 0)) == NodeId(0, 2)

    def test_is_an_involution_modulo_self(self):
        pattern, nodes = bind(BitReverseTraffic())
        for node in nodes:
            idx = node.y * 4 + node.x
            rev = pattern._permute(idx)
            assert pattern._permute(rev) == idx


class TestShuffle:
    def test_known_mapping(self):
        # index 5 = 0b0101 -> rotate-left = 0b1010 = 10 = (2,2).
        pattern, _ = bind(ShuffleTraffic())
        assert pattern.destination(NodeId(1, 1)) == NodeId(2, 2)

    def test_permutation_is_bijective(self):
        pattern, nodes = bind(ShuffleTraffic())
        images = {pattern._permute(i) for i in range(16)}
        assert images == set(range(16))

    def test_self_mapping_falls_back(self):
        # index 0 and index 15 are shuffle fixed points.
        pattern, _ = bind(ShuffleTraffic())
        for node in (NodeId(0, 0), NodeId(3, 3)):
            assert pattern.destination(node) != node


class TestEndToEnd:
    @pytest.mark.parametrize(
        "traffic", ["bit_complement", "bit_reverse", "shuffle"]
    )
    def test_registered_and_simulatable(self, traffic):
        assert make_traffic(traffic).name == traffic
        result = run_small(traffic=traffic, injection_rate=0.08)
        assert result.completion_probability == 1.0

    def test_bit_complement_stresses_bisection(self):
        """Every bit-complement packet crosses the mesh centre, so its
        latency exceeds uniform traffic's at the same rate."""
        uniform = run_small(traffic="uniform", injection_rate=0.10)
        complement = run_small(traffic="bit_complement", injection_rate=0.10)
        assert complement.average_hops > uniform.average_hops
        assert complement.average_latency > uniform.average_latency
