"""Unit tests for the evaluation metrics (latency summaries, EDP, PEF)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import (
    LatencySummary,
    PEFBreakdown,
    energy_delay_product,
    pef,
    percentile,
)


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([1, 2, 3], 0.5) == 2

    def test_interpolation(self):
        assert percentile([10, 20], 0.5) == 15.0

    def test_extremes(self):
        data = sorted([4, 8, 15, 16, 23, 42])
        assert percentile(data, 0.0) == 4
        assert percentile(data, 1.0) == 42

    def test_empty(self):
        assert percentile([], 0.9) == 0.0

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=50))
    def test_bounded_by_min_max(self, samples):
        ordered = sorted(samples)
        for q in (0.1, 0.5, 0.9):
            assert ordered[0] <= percentile(ordered, q) <= ordered[-1]


class TestLatencySummary:
    def test_from_samples(self):
        s = LatencySummary.from_samples([10, 20, 30, 40])
        assert s.count == 4
        assert s.mean == 25.0
        assert s.maximum == 40

    def test_empty_samples(self):
        s = LatencySummary.from_samples([])
        assert s.count == 0 and s.mean == 0.0

    def test_percentiles_ordered(self):
        s = LatencySummary.from_samples(list(range(1, 101)))
        assert s.p50 <= s.p95 <= s.p99 <= s.maximum


class TestPEF:
    def test_edp(self):
        assert energy_delay_product(20.0, 0.8) == pytest.approx(16.0)

    def test_pef_reduces_to_edp_when_fault_free(self):
        """Section 5.3: completion = 1 makes PEF equal EDP."""
        assert pef(20.0, 0.8, 1.0) == energy_delay_product(20.0, 0.8)

    def test_pef_penalises_lost_packets(self):
        assert pef(20.0, 0.8, 0.5) == pytest.approx(2 * pef(20.0, 0.8, 1.0))

    def test_zero_completion_is_infinite(self):
        assert math.isinf(pef(20.0, 0.8, 0.0))

    def test_invalid_completion(self):
        with pytest.raises(ValueError):
            pef(20.0, 0.8, 1.5)

    def test_breakdown(self):
        b = PEFBreakdown(
            average_latency=30.0,
            energy_per_packet_nj=0.8,
            completion_probability=0.8,
        )
        assert b.edp == pytest.approx(24.0)
        assert b.value == pytest.approx(30.0)

    @given(
        st.floats(1.0, 1e3),
        st.floats(1e-3, 10.0),
        st.floats(0.01, 1.0),
    )
    def test_pef_monotone_in_each_ingredient(self, lat, energy, completion):
        base = pef(lat, energy, completion)
        assert pef(lat * 2, energy, completion) > base
        assert pef(lat, energy * 2, completion) > base
        assert pef(lat, energy, completion / 2) > base
