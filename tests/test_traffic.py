"""Unit and statistical tests for the traffic generators."""

import random

import pytest

from repro.core.config import SimulationConfig
from repro.core.types import NodeId
from repro.traffic import (
    HotspotTraffic,
    MultimediaTraffic,
    NeighborTraffic,
    SelfSimilarTraffic,
    TransposeTraffic,
    UniformTraffic,
    make_traffic,
)
from repro.traffic.selfsimilar import pareto, pareto_mean


def bind(pattern, rate=0.2, k=4, seed=5):
    config = SimulationConfig(width=k, height=k, injection_rate=rate)
    nodes = [NodeId(x, y) for y in range(k) for x in range(k)]
    pattern.bind(config, random.Random(seed), nodes)
    return pattern, nodes


def mean_rate(pattern, nodes, cycles=4000):
    total = sum(
        pattern.arrivals(node, cycle) for cycle in range(cycles) for node in nodes
    )
    return total / (cycles * len(nodes))


class TestFactory:
    def test_known_names(self):
        for name in (
            "uniform",
            "transpose",
            "self_similar",
            "multimedia",
            "hotspot",
            "neighbor",
        ):
            assert make_traffic(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_traffic("tornado")


class TestUniform:
    def test_never_self(self):
        pattern, nodes = bind(UniformTraffic())
        for node in nodes:
            for _ in range(20):
                assert pattern.destination(node) != node

    def test_bernoulli_rate(self):
        pattern, nodes = bind(UniformTraffic(), rate=0.2)
        target = 0.2 / 4  # packets/node/cycle
        assert mean_rate(pattern, nodes) == pytest.approx(target, rel=0.15)

    def test_destinations_cover_mesh(self):
        pattern, nodes = bind(UniformTraffic())
        seen = {pattern.destination(NodeId(0, 0)) for _ in range(400)}
        assert len(seen) == len(nodes) - 1


class TestTranspose:
    def test_mapping(self):
        pattern, _ = bind(TransposeTraffic())
        assert pattern.destination(NodeId(1, 3)) == NodeId(3, 1)

    def test_diagonal_falls_back_to_uniform(self):
        pattern, _ = bind(TransposeTraffic())
        for _ in range(10):
            assert pattern.destination(NodeId(2, 2)) != NodeId(2, 2)

    def test_rectangular_mesh_out_of_bounds_partner(self):
        config = SimulationConfig(width=6, height=2, injection_rate=0.1)
        nodes = [NodeId(x, y) for y in range(2) for x in range(6)]
        pattern = TransposeTraffic()
        pattern.bind(config, random.Random(1), nodes)
        # (5, 0) transposes to (0, 5), outside the 6x2 mesh.
        dest = pattern.destination(NodeId(5, 0))
        assert dest in set(nodes) and dest != NodeId(5, 0)


class TestSelfSimilar:
    def test_pareto_mean(self):
        assert pareto_mean(2.0, 10.0) == pytest.approx(20.0)
        with pytest.raises(ValueError):
            pareto_mean(0.9, 10.0)

    def test_pareto_samples_above_minimum(self):
        rng = random.Random(3)
        assert all(pareto(rng, 1.9, 5.0) >= 5.0 for _ in range(200))

    def test_long_run_rate_matches_target(self):
        pattern, nodes = bind(SelfSimilarTraffic(), rate=0.2)
        target = 0.2 / 4
        assert mean_rate(pattern, nodes, cycles=12_000) == pytest.approx(
            target, rel=0.3
        )

    def test_burstiness_exceeds_bernoulli(self):
        """ON/OFF injection must have a higher variance-to-mean ratio
        (index of dispersion) than a Bernoulli process of the same rate."""
        pattern, nodes = bind(SelfSimilarTraffic(), rate=0.2)
        node = nodes[0]
        window = 50
        counts = []
        for w in range(200):
            counts.append(
                sum(pattern.arrivals(node, w * window + c) for c in range(window))
            )
        mean = sum(counts) / len(counts)
        var = sum((c - mean) ** 2 for c in counts) / len(counts)
        assert mean > 0
        assert var / mean > 1.5  # Bernoulli windows give ~ (1 - p) < 1

    def test_duty_cycle_in_unit_interval(self):
        pattern = SelfSimilarTraffic()
        assert 0 < pattern.duty_cycle < 1


class TestMultimedia:
    def test_gop_validation(self):
        with pytest.raises(ValueError):
            MultimediaTraffic(gop="IBX")

    def test_fixed_peers(self):
        pattern, nodes = bind(MultimediaTraffic())
        for node in nodes:
            first = pattern.destination(node)
            assert all(pattern.destination(node) == first for _ in range(5))
            assert first != node

    def test_long_run_rate_matches_target(self):
        pattern, nodes = bind(MultimediaTraffic(frame_period=100), rate=0.2)
        target = 0.2 / 4
        assert mean_rate(pattern, nodes, cycles=12_000) == pytest.approx(
            target, rel=0.25
        )


class TestHotspot:
    def test_bias_towards_hotspot(self):
        hot = NodeId(2, 2)
        pattern, nodes = bind(HotspotTraffic(hotspots=[hot], hot_fraction=0.5))
        hits = sum(pattern.destination(NodeId(0, 0)) == hot for _ in range(1000))
        assert hits > 350  # ~50% biased + ~3% uniform share

    def test_default_hotspot_is_centre(self):
        pattern, _ = bind(HotspotTraffic())
        assert pattern.hotspots == [NodeId(2, 2)]

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            HotspotTraffic(hot_fraction=1.5)

    def test_hotspot_outside_mesh_rejected(self):
        with pytest.raises(ValueError):
            bind(HotspotTraffic(hotspots=[NodeId(9, 9)]))


class TestNeighbor:
    def test_destinations_are_adjacent(self):
        pattern, nodes = bind(NeighborTraffic())
        for node in nodes:
            for _ in range(10):
                dest = pattern.destination(node)
                assert abs(dest.x - node.x) + abs(dest.y - node.y) == 1

    def test_corner_has_two_choices(self):
        pattern, _ = bind(NeighborTraffic())
        seen = {pattern.destination(NodeId(0, 0)) for _ in range(60)}
        assert seen == {NodeId(1, 0), NodeId(0, 1)}
