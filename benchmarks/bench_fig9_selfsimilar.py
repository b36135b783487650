"""Reproduces Figure 9 — latency vs injection rate, self-similar traffic."""

from conftest import BENCH, curve_value

from repro.harness import figure9, report
from repro.harness.benchbed import Outcome, benchmark


@benchmark(
    "fig9_selfsimilar",
    headline="roco_latency_gap_low_load_xy",
    unit="fraction",
)
def bench(ctx):
    """RoCo's low-load advantage under bursty self-similar arrivals."""
    scale = ctx.scale(BENCH)
    data = figure9(scale, executor=ctx.executor)
    print(report.render_latency_figure(data, "Figure 9", "self-similar"))

    def lat(routing, router, rate):
        return curve_value(data, routing, router, rate)

    # RoCo below generic at every sub-saturation point, every routing
    # algorithm; at the top (near-saturation) rate the heavy-tailed
    # bursts make single-seed latencies noisy, so allow a tolerance.
    high = scale.rates[-1]
    for routing in ("xy", "xy-yx", "adaptive"):
        for rate in scale.rates[:-1]:
            assert lat(routing, "roco", rate) < lat(routing, "generic", rate)
        assert lat(routing, "roco", high) < 1.20 * lat(routing, "generic", high)

    # Bursty arrivals cost latency versus smooth Bernoulli arrivals of
    # the same mean rate (compare the Figure 8 numbers qualitatively).
    low = scale.rates[0]
    assert lat("xy", "generic", low) > 24  # uniform Fig 8 sits near 27

    gap = 1 - lat("xy", "roco", low) / lat("xy", "generic", low)
    return Outcome(gap, details={"curves": data})
