"""Tests for the instrumentation probes and heatmaps."""

import pytest

from repro.core.simulator import Simulator
from repro.core.types import NodeId
from repro.faults import Component, ComponentFault
from repro.instrumentation import (
    DropProbe,
    LatencyMatrixProbe,
    LinkUtilizationProbe,
    render_legend,
    render_shaded,
)

from .conftest import small_config


@pytest.fixture(scope="module")
def probed_run():
    sim = Simulator(small_config(injection_rate=0.15, measure_packets=300))
    links = LinkUtilizationProbe(sim)
    latency = LatencyMatrixProbe(sim)
    drops = DropProbe(sim)
    result = sim.run()
    return sim, links, latency, drops, result


class TestLinkUtilization:
    def test_utilizations_bounded(self, probed_run):
        _, links, *_ = probed_run
        for (node, direction), util in links.utilization().items():
            assert 0.0 <= util <= 1.0, (node, direction)

    def test_traffic_flowed_somewhere(self, probed_run):
        _, links, *_ = probed_run
        assert any(u > 0 for u in links.utilization().values())

    def test_hottest_links_sorted(self, probed_run):
        _, links, *_ = probed_run
        hottest = links.hottest_links(4)
        utils = [u for *_, u in hottest]
        assert utils == sorted(utils, reverse=True)

    def test_node_throughput_covers_mesh(self, probed_run):
        _, links, *_ = probed_run
        throughput = links.node_throughput()
        assert len(throughput) == 16


class TestLatencyMatrix:
    def test_matrix_populated(self, probed_run):
        *_, latency, _, result = probed_run
        assert latency._samples
        total = sum(len(v) for v in latency._samples.values())
        assert total == result.delivered_packets

    def test_per_source_positive(self, probed_run):
        *_, latency, _, _ = probed_run
        for node, value in latency.per_source().items():
            assert value > 0

    def test_distance_correlates_with_latency(self, probed_run):
        """Longer paths must not be faster on average."""
        *_, latency, _, _ = probed_run
        by_hops = {}
        for (src, dest), samples in latency._samples.items():
            hops = abs(src.x - dest.x) + abs(src.y - dest.y)
            by_hops.setdefault(hops, []).append(sum(samples) / len(samples))
        averages = {h: sum(v) / len(v) for h, v in by_hops.items()}
        hops = sorted(averages)
        assert averages[hops[0]] < averages[hops[-1]]


class TestDropProbe:
    def test_no_drops_in_clean_run(self, probed_run):
        *_, drops, result = probed_run
        assert not drops.records
        assert result.dropped_packets == 0

    def test_drops_recorded_in_faulty_run(self):
        faults = [ComponentFault(NodeId(1, 1), Component.CROSSBAR)]
        sim = Simulator(
            small_config(
                router="generic", injection_rate=0.15, measure_packets=200
            ),
            faults=faults,
        )
        probe = DropProbe(sim)
        result = sim.run()
        assert result.dropped_packets > 0
        assert len(probe.records) >= result.dropped_packets
        assert all(r.age >= 0 for r in probe.records)
        assert probe.drops_by_destination()


class TestSchedulerCounters:
    """``SchedulerCounters`` and the ``Network.on_cycle_stepped`` hook
    report the scheduler's activity; the two must tell one story."""

    @pytest.fixture(scope="class")
    def hooked_run(self):
        sim = Simulator(small_config())
        active_counts: list[int] = []
        sim.network.on_cycle_stepped = lambda cycle, active: active_counts.append(
            len(active)
        )
        result = sim.run()
        return sim, active_counts, result

    def test_hook_sees_every_cycle(self, hooked_run):
        _, active_counts, result = hooked_run
        assert len(active_counts) == result.scheduler.cycles

    def test_hook_active_sets_sum_to_router_steps(self, hooked_run):
        _, active_counts, result = hooked_run
        assert sum(active_counts) == result.scheduler.router_steps

    def test_router_steps_match_router_counters(self, hooked_run):
        sim, _, result = hooked_run
        steps = [router.steps_taken for router in sim.network.routers.values()]
        assert sum(steps) == result.scheduler.router_steps

    def test_duty_cycle_is_steps_over_slots(self, hooked_run):
        sim, _, result = hooked_run
        sched = result.scheduler
        assert sched.router_slots == len(sim.network.routers) * sched.cycles
        assert 0.0 < sched.duty_cycle < 1.0
        assert sched.duty_cycle == pytest.approx(
            sched.router_steps / sched.router_slots
        )

    def test_active_set_bounded_by_mesh_size(self, hooked_run):
        sim, active_counts, _ = hooked_run
        assert 0 < max(active_counts) <= len(sim.network.routers)

    def test_skipped_cycles_are_per_router_idle_cycles(self, hooked_run):
        sim, _, result = hooked_run
        sched = result.scheduler
        idle = sum(
            sched.cycles - router.steps_taken
            for router in sim.network.routers.values()
        )
        assert idle == sched.router_slots - sched.router_steps > 0

    def test_full_sweep_hook_sees_whole_mesh(self):
        sim = Simulator(small_config(measure_packets=60), full_sweep=True)
        active_counts: list[int] = []
        sim.network.on_cycle_stepped = lambda cycle, active: active_counts.append(
            len(active)
        )
        result = sim.run()
        assert active_counts == [len(sim.network.routers)] * result.scheduler.cycles
        assert result.scheduler.router_steps == result.scheduler.router_slots


class TestHeatmaps:
    VALUES = {NodeId(x, y): float(x + y) for x in range(3) for y in range(3)}

    def test_render_shaded_shape(self):
        lines = render_shaded(self.VALUES, 3, 2).splitlines()
        assert len(lines) == 2
        assert all(len(line) == 2 * 3 for line in lines)

    def test_render_shaded_missing_node_is_idle(self):
        text = render_shaded({NodeId(1, 1): 1.0}, 2, 2)
        assert text.splitlines() == ["    ", "  @@"]

    def test_render_shaded_clamps_above_maximum(self):
        text = render_shaded({NodeId(0, 0): 5.0, NodeId(1, 0): 0.5}, 2, 1, maximum=1.0)
        assert text == "@@=="

    def test_render_shaded_extremes(self):
        text = render_shaded(self.VALUES, 3, 3)
        lines = text.splitlines()
        assert lines[0][0] == " "  # value 0 -> idle shade
        assert lines[-1][-1] == "@"  # max value -> full shade

    def test_render_legend(self):
        assert "0.0" in render_legend(2.5) and "2.50" in render_legend(2.5)
