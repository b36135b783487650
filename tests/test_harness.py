"""Tests for the experiment harness and report rendering."""

import pytest

from repro.core.simulator import run_simulation
from repro.core.types import NodeId, RoutingMode, grid_nodes
from repro.harness import (
    SCALES,
    ExperimentScale,
    PointSpec,
    averaged_points,
    fault_population,
    figure2,
    report,
    table1,
    table2,
)

TINY = ExperimentScale(
    name="tiny",
    width=4,
    height=4,
    warmup_packets=30,
    measure_packets=120,
    seeds=(1, 2),
    rates=(0.05, 0.15),
    contention_rates=(0.10,),
    max_cycles=20_000,
)


class TestScalesAndPoints:
    def test_registered_scales(self):
        assert {"quick", "standard", "paper"} <= set(SCALES)

    def test_point_config_carries_the_point(self):
        spec = PointSpec("roco", RoutingMode.XY, "uniform", 0.1)
        config = spec.config(TINY, seed=5)
        assert (config.width, config.height) == (TINY.width, TINY.height)
        assert (config.warmup_packets, config.measure_packets) == (30, 120)
        assert (config.router, config.injection_rate, config.seed) == ("roco", 0.1, 5)
        assert run_simulation(config).completion_probability == 1.0

    def test_point_jobs_one_per_seed_with_its_faults(self):
        spec = PointSpec("generic", RoutingMode.XY, "uniform", 0.1)
        faults = {s: fault_population(TINY, 1, True, s) for s in TINY.seeds}
        jobs = spec.jobs(TINY, faults)
        assert [job.config.seed for job in jobs] == list(TINY.seeds)
        assert [list(job.faults) for job in jobs] == [faults[s] for s in TINY.seeds]
        assert all(not job.faults for job in spec.jobs(TINY))

    def test_averaged_point_over_seeds(self):
        spec = PointSpec("roco", RoutingMode.XY, "uniform", 0.1)
        (point,) = averaged_points([spec], TINY)
        assert point["average_latency"] > 0
        assert point["completion_probability"] == 1.0
        singles = [run_simulation(spec.config(TINY, s)) for s in TINY.seeds]
        expected = sum(r.average_latency for r in singles) / len(singles)
        assert point["average_latency"] == pytest.approx(expected)

    def test_mesh_nodes(self):
        nodes = grid_nodes(TINY.width, TINY.height)
        assert len(nodes) == 16
        assert nodes[3:5] == [NodeId(3, 0), NodeId(0, 1)]  # row-major

    def test_fault_population_deterministic_and_shared(self):
        a = fault_population(TINY, 2, critical=True, seed=1)
        b = fault_population(TINY, 2, critical=True, seed=1)
        assert a == b
        c = fault_population(TINY, 2, critical=True, seed=2)
        assert a != c

    def test_fault_point(self):
        faults = {s: fault_population(TINY, 1, True, s) for s in TINY.seeds}
        spec = PointSpec("roco", RoutingMode.XY, "uniform", 0.1)
        (point,) = averaged_points([spec], TINY, [faults])
        assert 0 < point["completion_probability"] <= 1.0


class TestStructuralFigures:
    def test_table1_has_all_modes(self):
        data = table1()
        assert set(data) == {"xy", "xy-yx", "adaptive"}
        for summary in data.values():
            assert sum(len(v) for v in summary.values()) == 12

    def test_table2_values(self):
        t = table2()
        assert t["generic"] == pytest.approx(0.043, abs=5e-4)
        assert t["roco"] == 0.25

    def test_figure2(self):
        assert len(figure2(3)) == 4


class TestReportRendering:
    def test_render_table(self):
        text = report.render_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="T")
        assert "T" in text and "2.500" in text and "x" in text

    def test_render_table1(self):
        text = report.render_table1(table1())
        assert "Injxy" in text and "tyx" in text

    def test_render_table2(self):
        text = report.render_table2(table2())
        assert "0.250" in text

    def test_render_curves(self):
        text = report.render_curves(
            {"roco": [(0.1, 20.0), (0.2, 25.0)], "generic": [(0.1, 26.0), (0.2, 33.0)]}
        )
        assert "roco" in text and "25.00" in text

    def test_render_fault_figure(self):
        data = {"xy": {"roco": {1: 0.95, 2: 0.9}, "generic": {1: 0.8, 2: 0.7}}}
        text = report.render_fault_figure(data, "Figure 11")
        assert "0.950" in text and "xy" in text

    def test_render_figure13(self):
        data = {"uniform": {"generic": 1.0, "roco": 0.8}}
        text = report.render_figure13(data)
        assert "uniform" in text and "0.800" in text

    def test_render_figure14(self):
        data = {
            "critical": {
                "roco": {1: {"pef": 50.0, "latency": 30.0}},
                "generic": {1: {"pef": 90.0, "latency": 40.0}},
            }
        }
        text = report.render_figure14(data)
        assert "50.0|30.0" in text
