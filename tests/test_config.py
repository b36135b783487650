"""Unit tests for simulation configuration."""

import pytest

from repro.core.config import RouterConfig, SimulationConfig
from repro.core.types import RoutingMode


class TestRouterConfig:
    def test_paper_buffer_depths(self):
        assert RouterConfig.for_architecture("generic").buffer_depth == 4
        assert RouterConfig.for_architecture("path_sensitive").buffer_depth == 5
        assert RouterConfig.for_architecture("roco").buffer_depth == 5

    def test_equal_total_buffering(self):
        """The paper's fairness constraint: 60 flits per router."""
        generic = RouterConfig.for_architecture("generic")
        roco = RouterConfig.for_architecture("roco")
        assert 5 * generic.vcs_per_port * generic.buffer_depth == 60
        assert 4 * roco.vcs_per_port * roco.buffer_depth == 60

    def test_overrides(self):
        cfg = RouterConfig.for_architecture("roco", vcs_per_port=4)
        assert cfg.vcs_per_port == 4
        assert cfg.buffer_depth == 5

    def test_unknown_architecture(self):
        with pytest.raises(ValueError):
            RouterConfig.for_architecture("torus3000")


class TestSimulationConfig:
    def test_defaults_follow_architecture(self):
        cfg = SimulationConfig(router="generic")
        assert cfg.router_config.buffer_depth == 4

    def test_routing_string_coerced(self):
        cfg = SimulationConfig(routing="xy-yx")
        assert cfg.routing is RoutingMode.XY_YX

    def test_packet_rate(self):
        cfg = SimulationConfig(injection_rate=0.2, flits_per_packet=4)
        assert cfg.packet_injection_rate == pytest.approx(0.05)

    def test_num_nodes(self):
        assert SimulationConfig(width=8, height=8).num_nodes == 64
        assert SimulationConfig(width=4, height=6).num_nodes == 24

    def test_total_packets(self):
        cfg = SimulationConfig(warmup_packets=10, measure_packets=20)
        assert cfg.total_packets == 30

    @pytest.mark.parametrize(
        "bad",
        [
            {"width": 1},
            {"height": 0},
            {"injection_rate": -0.1},
            {"injection_rate": 1.5},
            {"flits_per_packet": 0},
            {"measure_packets": 0},
            {"warmup_packets": -1},
            {"router": "roco", "router_config": RouterConfig(vcs_per_port=4)},
            {"backend": "vector"},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SimulationConfig(**bad)

    def test_zero_warmup_is_legal(self):
        cfg = SimulationConfig(warmup_packets=0, measure_packets=20)
        assert cfg.total_packets == 20

    def test_audit_defaults_off(self):
        assert SimulationConfig().audit is False
        assert SimulationConfig(audit=True).audit is True
