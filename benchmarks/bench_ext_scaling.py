"""Extension: mesh-size scaling of the RoCo advantage.

The paper evaluates one network size (8x8).  This extension sweeps mesh
sizes at a fixed per-node load and checks that RoCo's latency advantage
over the generic router holds as the network grows (its mechanisms are
per-router, so the per-hop saving should compound with diameter).

Sizes from 16x16 up run through the sharded tile engine
(docs/sharded-scaling.md) — bit-identical to single-process execution,
so the curve is one continuous experiment; the artifact additionally
records per-tile activity-scheduler counters for the sharded cells.
"""

from repro.core.config import SimulationConfig
from repro.harness import report
from repro.harness.benchbed import Outcome, benchmark

SIZES = (4, 6, 8, 10)
#: Large meshes simulated by the sharded tile engine, and their tilings.
SHARDED_SIZES = (16, 32, 64)
TILINGS = {16: (2, 2), 32: (4, 4), 64: (4, 4)}
RATE = 0.15


def scaling_point(router: str, k: int, sim, warmup: int, measure: int, shards=None):
    config = SimulationConfig(
        width=k,
        height=k,
        router=router,
        routing="xy",
        traffic="uniform",
        injection_rate=RATE,
        warmup_packets=warmup,
        measure_packets=measure,
        seed=7,
        max_cycles=40_000,
        shards=shards,
    )
    return sim(config)


@benchmark(
    "ext_scaling",
    headline="roco_over_generic_latency_8x8",
    unit="x",
)
def bench(ctx):
    """RoCo's latency ratio vs generic at the paper's 8x8 size."""
    sizes = ctx.pick(quick=(4, 8), full=SIZES)
    warmup, measure = ctx.pick(quick=(60, 250), full=(120, 700))
    curves = {
        router: [
            (k, scaling_point(router, k, ctx.run, warmup, measure).average_latency)
            for k in sizes
        ]
        for router in ("generic", "roco")
    }
    print(
        report.render_curves(
            curves,
            x_label="mesh k",
            title=f"== Extension: k x k scaling at {RATE} flits/node/cycle ==",
        )
    )

    generic, roco = dict(curves["generic"]), dict(curves["roco"])
    for k in sizes:
        assert roco[k] < generic[k], k
    # The absolute saving grows with network diameter (per-hop savings
    # compound over longer average paths).
    small, large = sizes[0], sizes[-1]
    assert generic[large] - roco[large] > generic[small] - roco[small]

    ratio = roco[8] / generic[8]
    # Sharded extension of the curve: each large-mesh point runs on the
    # tile engine; results are bit-identical to the reference engine,
    # so these extend the same curves.
    sharded_sizes = ctx.pick(quick=(16, 32), full=SHARDED_SIZES)
    sharded_budget = ctx.pick(
        quick={16: (60, 250), 32: (40, 160)},
        full={16: (120, 700), 32: (120, 700), 64: (120, 700)},
    )
    sharded_curves: dict[str, list] = {"generic": [], "roco": []}
    tile_scheduler: dict[str, dict] = {}
    for k in sharded_sizes:
        s_warmup, s_measure = sharded_budget[k]
        per_router: dict[str, list] = {}
        for router in ("generic", "roco"):
            result = scaling_point(
                router, k, ctx.run, s_warmup, s_measure, shards=TILINGS[k]
            )
            sharded_curves[router].append((k, result.average_latency))
            per_router[router] = [
                {
                    "router_steps": c.router_steps,
                    "router_slots": c.router_slots,
                    "wakeups": c.wakeups,
                    "sleeps": c.sleeps,
                }
                for c in result.tile_scheduler
            ]
        tile_scheduler[f"{k}x{k}"] = per_router
    return Outcome(
        ratio,
        details={
            "curves": curves,
            "sharded_curves": sharded_curves,
            "tilings": {f"{k}x{k}": list(TILINGS[k]) for k in sharded_sizes},
            "tile_scheduler": tile_scheduler,
        },
    )
