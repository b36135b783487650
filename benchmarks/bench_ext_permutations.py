"""Extension: adversarial bit-permutation workloads.

Bit-complement forces every packet across the bisection and
bit-reverse/shuffle concentrate flows — the standard adversarial suite
beyond the paper's workloads.  Checks that the architectural ordering
(RoCo/PS below generic) survives traffic the designs were not tuned
for, and that bit-complement is the hardest pattern for everyone.
"""

from repro.core.config import SimulationConfig
from repro.harness import report
from repro.harness.benchbed import Outcome, benchmark

PATTERNS = ("uniform", "bit_complement", "bit_reverse", "shuffle")
ROUTERS = ("generic", "path_sensitive", "roco")
RATE = 0.12


def latency(router: str, traffic: str, sim, warmup: int, measure: int) -> float:
    config = SimulationConfig(
        width=8,
        height=8,
        router=router,
        routing="xy",
        traffic=traffic,
        injection_rate=RATE,
        warmup_packets=warmup,
        measure_packets=measure,
        seed=7,
        max_cycles=40_000,
    )
    return sim(config).average_latency


@benchmark(
    "ext_permutations",
    headline="bit_complement_roco_over_generic_latency",
    unit="x",
)
def bench(ctx):
    """RoCo vs generic on the hardest adversarial pattern (bit-complement)."""
    patterns = ctx.pick(quick=("uniform", "bit_complement"), full=PATTERNS)
    routers = ctx.pick(quick=("generic", "roco"), full=ROUTERS)
    warmup, measure = ctx.pick(quick=(60, 250), full=(120, 700))
    table = {
        traffic: {
            router: latency(router, traffic, ctx.run, warmup, measure)
            for router in routers
        }
        for traffic in patterns
    }
    print(
        report.render_table(
            ["traffic"] + list(routers),
            [
                [traffic] + [f"{table[traffic][r]:.1f}" for r in routers]
                for traffic in patterns
            ],
            title=f"== Extension: permutation workloads at {RATE} flits/node/cycle ==",
        )
    )

    # The architectural ordering survives traffic nobody tuned for.
    for traffic in patterns:
        for router in routers:
            if router != "generic":
                assert table[traffic][router] < table[traffic]["generic"], (
                    traffic,
                    router,
                )

    # Bit-complement maximises path length, so it must cost the most
    # latency of the patterns for every router at this (low) rate.
    for router in routers:
        assert table["bit_complement"][router] == max(
            table[t][router] for t in patterns
        ), router

    hardest = table["bit_complement"]
    return Outcome(
        hardest["roco"] / hardest["generic"], details={"latency": table}
    )
