"""Reproduces Figure 12 — completion probability, message-centric faults."""

from conftest import BENCH_FAULTS

from repro.harness import fault_figure, report
from repro.harness.benchbed import Outcome, benchmark


@benchmark(
    "fig12_noncritical_faults",
    headline="min_roco_completion_xy",
    unit="probability",
)
def bench(ctx):
    """RoCo's worst completion under message-centric faults (recycling)."""
    scale = ctx.scale(BENCH_FAULTS)
    data = fault_figure(critical=False, scale=scale, executor=ctx.executor)
    print(report.render_fault_figure(data, "Figure 12 (message-centric faults)"))

    for routing in ("xy", "xy-yx", "adaptive"):
        per_router = data[routing]
        for count in (1, 2, 4):
            # Hardware recycling: RoCo bypasses every message-centric /
            # non-critical fault, keeping completion essentially perfect.
            assert per_router["roco"][count] >= 0.97
            # The baselines still lose whole nodes to the same faults.
            assert per_router["roco"][count] >= per_router["generic"][count]

    # RoCo's completion under *oblivious* routing stays close to the
    # adaptive one — "uniform fault-tolerance under all routing
    # algorithms" (Section 5.4).
    for count in (1, 2, 4):
        assert (
            abs(data["xy"]["roco"][count] - data["adaptive"]["roco"][count])
            < 0.05
        )

    worst = min(data["xy"]["roco"].values())
    return Outcome(worst, details={"completion": data})
