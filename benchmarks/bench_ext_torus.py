"""Extension: mesh vs torus (generic router, XY + dateline VCs).

The paper names "2D mesh and torus" as the de-facto NoC topologies but
evaluates only the mesh.  This extension runs the generic router on
both: wraparound halves the average hop count (16/3 -> ~4 x 2/... on a
ring: k/4 per dimension) and roughly doubles bisection bandwidth, at
the cost of the dateline VC discipline that breaks the ring cycles.
"""

from repro.core.config import SimulationConfig
from repro.harness import report
from repro.harness.benchbed import Outcome, benchmark

RATES = (0.10, 0.25, 0.40)


def run(topology: str, rate: float, sim, warmup: int, measure: int):
    config = SimulationConfig(
        width=8,
        height=8,
        topology=topology,
        router="generic",
        routing="xy",
        traffic="uniform",
        injection_rate=rate,
        warmup_packets=warmup,
        measure_packets=measure,
        seed=7,
        max_cycles=60_000,
    )
    return sim(config)


@benchmark(
    "ext_torus",
    headline="torus_over_mesh_latency_low_load",
    unit="x",
)
def bench(ctx):
    """Latency the torus wraparound buys back at low load."""
    rates = ctx.pick(quick=(RATES[0],), full=RATES)
    warmup, measure = ctx.pick(quick=(60, 250), full=(150, 900))
    results = {
        topology: {
            rate: run(topology, rate, ctx.run, warmup, measure) for rate in rates
        }
        for topology in ("mesh", "torus")
    }
    curves = {
        topology: [(rate, result.average_latency) for rate, result in points.items()]
        for topology, points in results.items()
    }
    print(
        report.render_curves(
            curves,
            x_label="inj rate",
            title="== Extension: 8x8 mesh vs torus (generic router, latency) ==",
        )
    )

    mesh, torus = results["mesh"], results["torus"]
    for rate in rates:
        # Wraparound shortens paths: the torus wins at every load.
        assert torus[rate].average_latency < mesh[rate].average_latency, rate
        # And everything still completes (the dateline discipline holds).
        assert torus[rate].completion_probability == 1.0, rate

    # Average hop count drops from 16/3 to ~4 (k/4 per dimension x 2).
    low = rates[0]
    assert torus[low].average_hops < 0.85 * mesh[low].average_hops

    ratio = torus[low].average_latency / mesh[low].average_latency
    return Outcome(ratio, details={"curves": curves})
