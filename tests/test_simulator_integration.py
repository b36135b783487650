"""End-to-end integration tests: full simulations on small meshes."""

import pytest

from repro.core.simulator import Simulator

from .conftest import run_small, small_config

ROUTERS = ("generic", "path_sensitive", "roco")
ROUTINGS = ("xy", "xy-yx", "adaptive")


class TestFullDelivery:
    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("routing", ROUTINGS)
    def test_every_packet_delivered(self, router, routing):
        result = run_small(router=router, routing=routing)
        assert result.delivered_packets == result.injected_packets
        assert result.dropped_packets == 0
        assert result.completion_probability == 1.0

    @pytest.mark.parametrize("router", ROUTERS)
    def test_flit_conservation(self, router):
        """Delivered flits == delivered packets x packet size."""
        sim = Simulator(small_config(router=router))
        result = sim.run()
        stats = sim.network.stats
        assert stats.delivered_flits == result.delivered_packets * 4
        # Nothing left anywhere in the network.
        for r in sim.network.routers.values():
            for vc in r.all_vcs():
                assert vc.empty

    @pytest.mark.parametrize(
        "traffic", ["uniform", "transpose", "self_similar", "multimedia", "neighbor"]
    )
    def test_traffic_patterns_complete(self, traffic):
        result = run_small(traffic=traffic, injection_rate=0.08)
        assert result.completion_probability == 1.0


class TestLatencySanity:
    def test_zero_load_latency_close_to_pipeline_bound(self):
        """At near-zero load, latency ~ 3 cycles/hop + serialization."""
        result = run_small(
            router="roco", injection_rate=0.01, measure_packets=80
        )
        expected = 3 * result.average_hops + 3
        assert result.average_latency == pytest.approx(expected, rel=0.35)

    def test_latency_increases_with_load(self):
        low = run_small(injection_rate=0.05)
        high = run_small(injection_rate=0.30)
        assert high.average_latency > low.average_latency

    def test_early_ejection_saves_cycles(self):
        """RoCo beats the generic router at zero load (no ejection stage
        and no RC stage thanks to look-ahead routing)."""
        roco = run_small(router="roco", injection_rate=0.02)
        generic = run_small(router="generic", injection_rate=0.02)
        assert roco.average_latency < generic.average_latency

    def test_neighbor_traffic_latency_is_single_hop(self):
        result = run_small(
            router="roco", traffic="neighbor", injection_rate=0.02
        )
        assert result.average_hops == pytest.approx(1.0)
        assert result.average_latency < 12


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = run_small(seed=123)
        b = run_small(seed=123)
        assert a.average_latency == b.average_latency
        assert a.energy.total == b.energy.total

    def test_different_seed_different_result(self):
        a = run_small(seed=1)
        b = run_small(seed=2)
        assert a.average_latency != b.average_latency


class TestResultRecord:
    def test_energy_and_pef_consistency(self):
        result = run_small()
        assert result.energy_per_packet_nj > 0
        assert result.edp == pytest.approx(
            result.average_latency * result.energy_per_packet_nj
        )
        # Fault-free PEF reduces to EDP.
        assert result.pef == pytest.approx(result.edp)

    def test_summary_line_mentions_router(self):
        result = run_small(router="generic")
        assert "generic" in result.summary_line()

    def test_latency_summary_consistent_with_mean(self):
        result = run_small()
        assert result.latency.mean == pytest.approx(result.average_latency)
        assert result.latency.count == result.delivered_packets

    def test_throughput_tracks_offered_load_below_saturation(self):
        result = run_small(injection_rate=0.10, measure_packets=400)
        # Accepted throughput within a factor of the offered rate (the
        # drain window biases it low, so allow generous slack downward).
        assert 0.3 * 0.10 <= result.throughput <= 1.2 * 0.10

    def test_early_ejections_counted_for_roco_only(self):
        roco = Simulator(small_config(router="roco"))
        roco_result = roco.run()
        assert roco.network.stats.activity.early_ejections > 0
        generic = Simulator(small_config(router="generic"))
        generic.run()
        assert generic.network.stats.activity.early_ejections == 0
