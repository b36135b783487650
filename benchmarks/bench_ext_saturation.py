"""Extension: saturation throughput per architecture.

Bisection search for the offered load where latency triples over the
unloaded value — the standard operational definition of saturation
throughput.  Printed next to the bisection bound (4/k = 0.5 for an 8x8
mesh) so router efficiency is visible at a glance.
"""

from repro.analysis.model import bisection_saturation_rate
from repro.harness import report
from repro.harness.benchbed import Outcome, benchmark
from repro.harness.replication import find_saturation_rate

ROUTERS = ("generic", "path_sensitive", "roco")


@benchmark(
    "ext_saturation",
    headline="roco_saturation_fraction_of_bound",
    unit="fraction",
)
def bench(ctx):
    """RoCo's saturation throughput as a fraction of the bisection bound."""
    routers = ctx.pick(quick=("roco",), full=ROUTERS)
    # A sustained workload (1500 packets) and a 2x-unloaded threshold
    # give a sharp knee; tiny finite workloads drain before queues
    # build and would blur the estimate upward.
    measure, tolerance = ctx.pick(quick=(400, 0.06), full=(1500, 0.03))
    rates = {
        router: find_saturation_rate(
            router,
            width=8,
            height=8,
            measure_packets=measure,
            tolerance=tolerance,
            threshold_factor=2.0,
            run=ctx.run,
        )
        for router in routers
    }
    bound = bisection_saturation_rate(8)
    print(
        report.render_table(
            ["router", "saturation (flits/node/cyc)", "of bisection bound"],
            [
                [router, f"{rate:.3f}", f"{rate / bound:.0%}"]
                for router, rate in rates.items()
            ],
            title="== Extension: 8x8 uniform XY saturation throughput ==",
        )
    )

    for router, rate in rates.items():
        # Sanity band: real routers land between half the bisection
        # bound and slightly above it (finite-workload softening).
        assert 0.5 * bound <= rate <= 1.25 * bound, (router, rate)
    # The RoCo and Path-Sensitive designs must stay competitive with the
    # generic router's saturation point (within ~20%); the quick tier
    # searches RoCo alone, so there only the band applies.
    if "generic" in rates:
        for router, rate in rates.items():
            assert rate >= 0.8 * rates["generic"], (router, rate)

    return Outcome(
        rates["roco"] / bound,
        details={"saturation_rates": rates, "bisection_bound": bound},
    )
