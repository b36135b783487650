"""Tiny-scale tests for the per-figure reproduction runners.

The benchmarks exercise these at 8x8; here we only verify the runners'
shapes, keys and basic sanity on a 3x3 grid so `pytest tests/` stays
fast.
"""

import repro.harness.figures as figures
from repro.harness import ExperimentScale, latency_figure

MICRO = ExperimentScale(
    name="micro",
    width=3,
    height=3,
    warmup_packets=15,
    measure_packets=80,
    seeds=(1,),
    rates=(0.06,),
    contention_rates=(0.10,),
    max_cycles=20_000,
)


class TestLatencyRunners:
    def test_figure8_shape(self):
        data = figures.figure8(MICRO)
        assert set(data) == {"xy", "xy-yx", "adaptive"}
        for routing, per_router in data.items():
            assert set(per_router) == {"generic", "path_sensitive", "roco"}
            for router, curve in per_router.items():
                assert [rate for rate, _ in curve] == list(MICRO.rates)
                assert all(latency > 0 for _, latency in curve)

    def test_latency_figure_other_traffic(self):
        data = latency_figure("neighbor", MICRO)
        for per_router in data.values():
            for curve in per_router.values():
                # neighbour traffic: single-hop latencies, well under 20.
                assert all(latency < 20 for _, latency in curve)


class TestContentionRunner:
    def test_figure3_shape(self):
        data = figures.figure3(MICRO)
        assert set(data) == {"row_xy", "column_xy", "adaptive"}
        for panel in data.values():
            for router, curve in panel.items():
                for rate, probability in curve:
                    assert 0.0 <= probability <= 1.0


class TestFaultRunners:
    def test_fault_figure_shape(self, monkeypatch):
        monkeypatch.setattr(figures, "FAULT_COUNTS", (1,))
        data = figures.fault_figure(critical=True, scale=MICRO)
        for routing, per_router in data.items():
            for router, per_count in per_router.items():
                assert set(per_count) == {1}
                assert 0.0 <= per_count[1] <= 1.0

    def test_figure13_shape(self):
        data = figures.figure13(MICRO)
        assert set(data) == {"uniform", "self_similar", "transpose"}
        for per_router in data.values():
            for energy in per_router.values():
                assert energy > 0

    def test_figure14_shape(self, monkeypatch):
        monkeypatch.setattr(figures, "FAULT_COUNTS", (1,))
        data = figures.figure14(MICRO)
        assert set(data) == {"critical", "non_critical"}
        for per_router in data.values():
            for per_count in per_router.values():
                cell = per_count[1]
                assert {"pef", "latency", "completion", "energy_nj"} == set(cell)
                assert cell["pef"] > 0
