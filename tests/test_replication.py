"""Tests for the replication statistics and saturation search."""

from dataclasses import replace

import pytest

from repro.core.simulator import run_simulation
from repro.harness.export import result_record
from repro.harness.parallel import ParallelExecutor
from repro.harness.replication import (
    MetricSummary,
    find_saturation_rate,
    replicate,
)

from .conftest import small_config


class TestMetricSummary:
    def test_mean_and_std(self):
        s = MetricSummary("x", (10.0, 12.0, 14.0))
        assert s.mean == 12.0
        assert s.std == pytest.approx(2.0)

    def test_single_sample_no_spread(self):
        s = MetricSummary("x", (5.0,))
        assert s.std == 0.0 and s.ci95 == 0.0

    def test_ci_uses_t_distribution(self):
        s = MetricSummary("x", (10.0, 12.0))
        # n=2 -> dof=1 -> t=12.706; std=sqrt(2); ci = t*std/sqrt(2)
        assert s.ci95 == pytest.approx(12.706 * s.std / 2**0.5)

    def test_str(self):
        assert "n=3" in str(MetricSummary("lat", (1.0, 2.0, 3.0)))


class TestReplicate:
    def test_summaries_for_all_metrics(self):
        summaries = replicate(
            small_config(measure_packets=80), seeds=(1, 2, 3)
        )
        assert set(summaries) == {
            "average_latency",
            "throughput",
            "completion_probability",
            "energy_per_packet_nj",
            "pef",
        }
        lat = summaries["average_latency"]
        assert len(lat.samples) == 3
        assert lat.mean > 0
        assert lat.ci95 >= 0

    def test_completion_is_deterministically_one(self):
        summaries = replicate(
            small_config(measure_packets=80), seeds=(1, 2)
        )
        assert summaries["completion_probability"].mean == 1.0
        assert summaries["completion_probability"].std == 0.0

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            replicate(small_config(), seeds=())

    def test_every_config_field_survives_reseeding(self):
        # Only the seed may change: a torus must not be replicated as
        # the default mesh, nor an SoA run on the object engine.
        torus = small_config(
            topology="torus", router="generic", injection_rate=0.2
        )
        record = result_record(run_simulation(replace(torus, seed=3)))
        summaries = replicate(torus, seeds=(3,))
        for metric, summary in summaries.items():
            assert summary.samples == (float(record[metric]),), metric

        class Recording(ParallelExecutor):
            def run_configs(self, configs):
                self.configs = list(configs)
                return super().run_configs(self.configs)

        executor = Recording()
        soa = small_config(backend="soa")
        replicate(soa, seeds=(1, 2), executor=executor)
        assert executor.configs == [replace(soa, seed=1), replace(soa, seed=2)]


class TestSaturationSearch:
    def test_finds_a_plausible_rate_on_small_mesh(self):
        rate = find_saturation_rate(
            "roco",
            width=4,
            height=4,
            measure_packets=250,
            tolerance=0.05,
        )
        # A 4x4 mesh has a bisection bound of 1.0 flits/node/cycle;
        # practical saturation sits well inside (0.2, 0.6].
        assert 0.2 < rate <= 0.6

    def test_threshold_factor_moves_the_estimate(self):
        loose = find_saturation_rate(
            "roco", width=4, height=4, measure_packets=200,
            tolerance=0.06, threshold_factor=5.0,
        )
        tight = find_saturation_rate(
            "roco", width=4, height=4, measure_packets=200,
            tolerance=0.06, threshold_factor=1.5,
        )
        assert tight <= loose
