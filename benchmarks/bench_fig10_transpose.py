"""Reproduces Figure 10 — latency vs injection rate, transpose traffic."""

from conftest import curve_value

from repro.harness import ExperimentScale, figure10, report
from repro.harness.benchbed import Outcome, benchmark

#: Transpose saturates much earlier than uniform (its row/column flows
#: concentrate on the diagonal), so the sweep uses lower rates.
TRANSPOSE_SCALE = ExperimentScale(
    name="bench-transpose",
    width=8,
    height=8,
    warmup_packets=150,
    measure_packets=900,
    seeds=(7,),
    rates=(0.05, 0.12, 0.20),
    max_cycles=40_000,
)


@benchmark(
    "fig10_transpose",
    headline="roco_latency_gap_low_load_xy",
    unit="fraction",
)
def bench(ctx):
    """RoCo's low-load advantage under the transpose permutation."""
    scale = ctx.scale(TRANSPOSE_SCALE)
    data = figure10(scale, executor=ctx.executor)
    print(report.render_latency_figure(data, "Figure 10", "transpose"))

    def lat(routing, router, rate):
        return curve_value(data, routing, router, rate)

    # RoCo below generic at every sub-saturation point; transpose
    # saturates abruptly, so the top rate gets a tolerance band.
    high = scale.rates[-1]
    for routing in ("xy", "xy-yx", "adaptive"):
        for rate in scale.rates[:-1]:
            assert lat(routing, "roco", rate) < lat(routing, "generic", rate)
        assert lat(routing, "roco", high) < 1.55 * lat(routing, "generic", high)

    # Alternate paths help transpose: XY-YX spreads the permutation's
    # row/column flows and clearly beats deterministic XY at high load.
    assert lat("xy-yx", "roco", high) < lat("xy", "roco", high)
    assert lat("adaptive", "roco", high) < lat("xy", "roco", high)

    low = scale.rates[0]
    gap = 1 - lat("xy", "roco", low) / lat("xy", "generic", low)
    return Outcome(gap, details={"curves": data})
