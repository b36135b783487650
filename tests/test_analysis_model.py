"""Tests for the analytical performance model, cross-validated against
the simulator.

The zero-load and saturation estimates below are first-order closed
forms that exist only as references for the simulator; the library keeps
just the bisection bound.  Pipeline accounting (DESIGN.md Section 5.1):

* every hop costs 3 cycles (stage 1: RC/VA/SA, stage 2: ST, 1 wire);
* the generic router adds 1 RC cycle per hop for head flits (no
  look-ahead routing) and 2 ejection cycles at the destination
  (SA + ST through the crossbar to the PE port);
* serialization adds ``flits_per_packet - 1`` cycles for the tail;
* injection adds ~2 cycles (source push + first-stage allocation).
"""

from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.model import bisection_saturation_rate

from .conftest import run_small

#: Cycles per hop: stage 1 + stage 2 + link.
HOP_CYCLES = 3
#: Source-side overhead before the head starts pipelining.
INJECTION_OVERHEAD = 2


def average_hops_uniform(k: int) -> float:
    """Mean Manhattan distance between distinct nodes of a k x k mesh.

    The mean one-dimension distance over ordered pairs (including
    self-pairs) is (k^2 - 1) / (3k); summing both dimensions and
    correcting for the excluded self-pairs gives the uniform-traffic
    average hop count.
    """
    if k < 2:
        raise ValueError("mesh must be at least 2x2")
    n = k * k
    per_dimension = (k * k - 1) / (3 * k)
    # Distances are computed over all n^2 ordered pairs; uniform traffic
    # excludes the n self-pairs (distance 0), so rescale.
    return 2 * per_dimension * n * n / (n * n - n)


@dataclass(frozen=True)
class ZeroLoadEstimate:
    """Predicted unloaded packet latency for one architecture."""

    architecture: str
    hops: float
    head_cycles: float
    serialization: float

    @property
    def total(self) -> float:
        return INJECTION_OVERHEAD + self.head_cycles + self.serialization


def zero_load_latency(
    architecture: str, k: int = 8, flits_per_packet: int = 4
) -> ZeroLoadEstimate:
    """Unloaded end-to-end latency estimate, uniform traffic."""
    hops = average_hops_uniform(k)
    head = HOP_CYCLES * hops
    if architecture == "generic":
        head += hops  # per-hop RC cycle (no look-ahead)
        head += 2  # ejection SA + ST at the destination
    elif architecture not in ("path_sensitive", "roco"):
        raise ValueError(f"unknown architecture {architecture!r}")
    return ZeroLoadEstimate(
        architecture=architecture,
        hops=hops,
        head_cycles=head,
        serialization=flits_per_packet - 1,
    )


def expected_saturation_rate(k: int, router_efficiency: float = 0.75) -> float:
    """Practical saturation estimate: bisection bound x router efficiency.

    Real routers reach 60-85% of the bisection bound under XY routing;
    the default 0.75 matches what the simulator achieves.
    """
    return bisection_saturation_rate(k) * router_efficiency


def center_link_load(k: int, rate: float) -> float:
    """Approximate flit load on a central X link under XY uniform traffic.

    A directed X-channel at the bisection carries the eastbound traffic
    of the k/2 columns to its west heading to the k/2 columns to its
    east within the same row: rate * (k/4) * (k/2) / ... simplified to
    the standard k/4 * rate scaling with a row-uniformity factor.
    """
    return rate * k / 4


class TestHopFormula:
    @given(st.integers(2, 10))
    def test_matches_bruteforce(self, k):
        total = 0
        count = 0
        for sx in range(k):
            for sy in range(k):
                for dx in range(k):
                    for dy in range(k):
                        if (sx, sy) == (dx, dy):
                            continue
                        total += abs(sx - dx) + abs(sy - dy)
                        count += 1
        assert average_hops_uniform(k) == pytest.approx(total / count)

    def test_known_value_8x8(self):
        assert average_hops_uniform(8) == pytest.approx(16 / 3)

    def test_rejects_tiny_mesh(self):
        with pytest.raises(ValueError):
            average_hops_uniform(1)


class TestZeroLoadLatency:
    def test_generic_pays_rc_and_ejection(self):
        generic = zero_load_latency("generic", 8)
        roco = zero_load_latency("roco", 8)
        assert generic.total > roco.total
        assert generic.total - roco.total == pytest.approx(generic.hops + 2)

    def test_lookahead_routers_identical(self):
        assert zero_load_latency("roco", 8).total == pytest.approx(
            zero_load_latency("path_sensitive", 8).total
        )

    def test_unknown_architecture(self):
        with pytest.raises(ValueError):
            zero_load_latency("hexagonal", 8)

    @pytest.mark.parametrize("router", ["generic", "path_sensitive", "roco"])
    def test_simulator_matches_model_at_low_load(self, router):
        """The headline cross-validation: unloaded simulation latency
        must land within ~15% of the closed-form pipeline estimate."""
        estimate = zero_load_latency(router, k=4)
        result = run_small(router=router, injection_rate=0.02, measure_packets=120)
        assert result.average_latency == pytest.approx(estimate.total, rel=0.15)


class TestSaturation:
    def test_bisection_bound(self):
        assert bisection_saturation_rate(8) == pytest.approx(0.5)
        assert bisection_saturation_rate(4) == pytest.approx(1.0)

    def test_expected_rate_below_bound(self):
        assert expected_saturation_rate(8) < bisection_saturation_rate(8)

    def test_simulator_unsaturated_below_estimate(self):
        """At half the estimated saturation rate the network must accept
        the offered load (throughput tracks injection)."""
        rate = expected_saturation_rate(4) / 2
        result = run_small(injection_rate=rate, measure_packets=400)
        assert result.completion_probability == 1.0
        assert result.average_latency < 3 * zero_load_latency("roco", 4).total

    def test_center_link_load_scales(self):
        assert center_link_load(8, 0.4) == pytest.approx(0.8)
        assert center_link_load(8, 0.2) < center_link_load(8, 0.4)
