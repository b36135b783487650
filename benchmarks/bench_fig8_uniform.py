"""Reproduces Figure 8 — latency vs injection rate, uniform random traffic."""

from conftest import BENCH, curve_value

from repro.harness import figure8, report
from repro.harness.benchbed import Outcome, benchmark


@benchmark(
    "fig8_uniform",
    headline="roco_latency_gap_low_load_xy",
    unit="fraction",
)
def bench(ctx):
    """RoCo's low-load latency advantage over the generic router (XY)."""
    scale = ctx.scale(BENCH)
    data = figure8(scale, executor=ctx.executor)
    print(report.render_latency_figure(data, "Figure 8", "uniform"))

    def lat(routing, router, rate):
        return curve_value(data, routing, router, rate)

    for routing in ("xy", "xy-yx", "adaptive"):
        for rate in scale.rates:
            # Headline: RoCo reduces latency vs the generic router at
            # every operating point (paper: 4-40%, growing with load).
            assert lat(routing, "roco", rate) < lat(routing, "generic", rate)
            # The Path-Sensitive router also beats the generic baseline.
            assert lat(routing, "path_sensitive", rate) < lat(
                routing, "generic", rate
            )

    # Magnitude: at low load RoCo's early-ejection + look-ahead advantage
    # over the generic router is well into the paper's 4-40% band.
    low = scale.rates[0]
    gap = 1 - lat("xy", "roco", low) / lat("xy", "generic", low)
    assert 0.04 <= gap <= 0.45

    # Latency is monotonically non-decreasing with offered load.
    for router in ("generic", "path_sensitive", "roco"):
        curve = [lat("xy", router, r) for r in scale.rates]
        assert curve == sorted(curve)

    return Outcome(gap, details={"curves": data})
