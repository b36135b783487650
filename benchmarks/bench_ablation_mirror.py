"""Ablation: the Mirroring Effect vs a plain separable 2x2 allocator.

DESIGN.md calls out the Mirror allocator as a headline design choice
(Section 3.3: maximal matching from one global arbiter per module).
This ablation replaces it with a blind two-stage separable allocator
and measures what the guarantee is worth under load.
"""

from repro.core.config import RouterConfig, SimulationConfig
from repro.harness import report
from repro.harness.benchbed import Outcome, benchmark

RATES = (0.20, 0.30, 0.38)


def run(mirror: bool, rate: float, sim, warmup: int, measure: int):
    router_config = RouterConfig.for_architecture("roco", mirror_allocation=mirror)
    config = SimulationConfig(
        width=8,
        height=8,
        router="roco",
        routing="xy",
        traffic="uniform",
        injection_rate=rate,
        router_config=router_config,
        warmup_packets=warmup,
        measure_packets=measure,
        seed=7,
        max_cycles=40_000,
    )
    return sim(config)


@benchmark(
    "ablation_mirror",
    headline="sequential_over_mirror_latency_high_load",
    unit="x",
)
def bench(ctx):
    """What the Mirroring Effect's matching guarantee is worth under load."""
    rates = ctx.pick(quick=(RATES[-1],), full=RATES)
    warmup, measure = ctx.pick(quick=(60, 250), full=(150, 900))
    curves = {
        label: [
            (rate, run(flag, rate, ctx.run, warmup, measure).average_latency)
            for rate in rates
        ]
        for label, flag in (("mirror", True), ("sequential", False))
    }
    print(
        report.render_curves(
            curves,
            x_label="inj rate",
            title="== Ablation: RoCo switch allocation (latency, cycles) ==",
        )
    )

    mirror, sequential = dict(curves["mirror"]), dict(curves["sequential"])
    # The Mirroring Effect must never lose, and must win visibly once
    # contention appears (the matching guarantee is a high-load feature).
    for rate in rates:
        assert mirror[rate] <= sequential[rate] * 1.02, rate
    high = rates[-1]
    assert mirror[high] < sequential[high]

    return Outcome(sequential[high] / mirror[high], details={"curves": curves})
