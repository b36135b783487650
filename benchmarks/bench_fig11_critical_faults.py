"""Reproduces Figure 11 — completion probability, router-centric faults."""

from conftest import BENCH_FAULTS

from repro.harness import fault_figure, report
from repro.harness.benchbed import Outcome, benchmark


@benchmark(
    "fig11_critical_faults",
    headline="completion_ratio_roco_over_generic_xy_4faults",
    unit="x",
)
def bench(ctx):
    """RoCo's completion advantage at the worst point (XY, 4 faults)."""
    scale = ctx.scale(BENCH_FAULTS)
    data = fault_figure(critical=True, scale=scale, executor=ctx.executor)
    print(report.render_fault_figure(data, "Figure 11 (router-centric faults)"))

    # Completion is a packet count over ``measure_packets``, so "at least
    # as much" is resolved no finer than one packet: with one fault under
    # XY-YX, RoCo and the baselines lose the same flows and differ by
    # whichever single packet was in flight when the fault bit.
    one_packet = 1 / scale.measure_packets + 1e-12
    for routing in ("xy", "xy-yx", "adaptive"):
        per_router = data[routing]
        for count in (1, 2, 4):
            # Graceful degradation: RoCo completes at least as much as
            # both baselines for every fault count and routing algorithm.
            roco = per_router["roco"][count]
            assert roco >= per_router["generic"][count] - one_packet
            assert roco >= per_router["path_sensitive"][count] - one_packet

        # Completion degrades (weakly) as faults accumulate.
        for router in per_router:
            assert per_router[router][4] <= per_router[router][1] + 0.02

    # The advantage is largest under deterministic routing (no alternate
    # paths for the baselines) at the highest fault count.
    xy = data["xy"]
    assert xy["roco"][4] > xy["generic"][4]
    ratio = xy["roco"][4] / max(xy["generic"][4], 1e-9)
    assert ratio - 1 > 0.05

    return Outcome(ratio, details={"completion": data})
