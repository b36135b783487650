"""Ablation: look-ahead routing (Section 3.1).

Disabling look-ahead charges RoCo head flits the same post-arrival
Routing Computation cycle the generic router pays, isolating how much
of RoCo's latency advantage comes from moving RC off the critical path.
"""

from repro.core.config import RouterConfig, SimulationConfig
from repro.harness import report
from repro.harness.benchbed import Outcome, benchmark

RATES = (0.05, 0.20, 0.30)


def run(lookahead: bool, rate: float, sim, warmup: int, measure: int):
    router_config = RouterConfig.for_architecture(
        "roco", lookahead_routing=lookahead
    )
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
    "ablation_lookahead",
    headline="lookahead_saving_cycles_low_load",
    unit="cycles",
)
def bench(ctx):
    """End-to-end cycles look-ahead RC saves at the lowest operating point."""
    rates = ctx.pick(quick=(RATES[0],), full=RATES)
    warmup, measure = ctx.pick(quick=(60, 250), full=(150, 900))
    curves = {
        label: [
            (rate, run(flag, rate, ctx.run, warmup, measure).average_latency)
            for rate in rates
        ]
        for label, flag in (("lookahead", True), ("local RC", False))
    }
    print(
        report.render_curves(
            curves,
            x_label="inj rate",
            title="== Ablation: look-ahead routing (latency, cycles) ==",
        )
    )

    savings = {
        rate: dict(curves["local RC"])[rate] - dict(curves["lookahead"])[rate]
        for rate in rates
    }
    # Look-ahead saves roughly one cycle per hop for head flits:
    # ~3-6 cycles end-to-end on an 8x8 mesh.
    for rate in rates:
        assert savings[rate] > 2.0, rate

    return Outcome(savings[rates[0]], details={"curves": curves})
