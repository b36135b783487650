"""Ablation: buffer-depth sensitivity.

The paper fixes total buffering at 60 flits/router for fairness.  This
ablation sweeps per-VC depth for the RoCo router to show where the
credit round-trip stops being hidden (depth ~2) and where extra depth
stops paying (the saturation buffer wall).
"""

from repro.core.config import RouterConfig, SimulationConfig
from repro.harness import report
from repro.harness.benchbed import Outcome, benchmark

DEPTHS = (2, 3, 5, 8)
RATE = 0.28


def latency(depth: int, sim, warmup: int, measure: int) -> float:
    router_config = RouterConfig.for_architecture("roco", buffer_depth=depth)
    config = SimulationConfig(
        width=8,
        height=8,
        router="roco",
        routing="xy",
        traffic="uniform",
        injection_rate=RATE,
        router_config=router_config,
        warmup_packets=warmup,
        measure_packets=measure,
        seed=7,
        max_cycles=60_000,
    )
    return sim(config).average_latency


@benchmark(
    "ablation_buffers",
    headline="depth2_over_depth5_latency",
    unit="x",
)
def bench(ctx):
    """Latency penalty of starved (depth-2) buffers vs the paper's depth 5."""
    depths = ctx.pick(quick=(2, 5), full=DEPTHS)
    warmup, measure = ctx.pick(quick=(60, 250), full=(150, 900))
    curve = [(d, latency(d, ctx.run, warmup, measure)) for d in depths]
    print(
        report.render_curves(
            {"roco": curve},
            x_label="VC depth",
            title=f"== Ablation: per-VC buffer depth at {RATE} flits/node/cycle ==",
        )
    )

    by_depth = dict(curve)
    # Starved buffers (depth 2 cannot hide the 2-cycle credit loop plus
    # a 4-flit worm) must hurt badly relative to the paper's depth 5.
    assert by_depth[2] > 1.2 * by_depth[5]
    # Monotone improvement from 2 up to the paper's choice; deepening
    # beyond it gives diminishing returns.
    shallow = [by_depth[d] for d in depths if d <= 5]
    assert all(a > b for a, b in zip(shallow, shallow[1:]))
    for depth in depths:
        if depth > 5:
            assert by_depth[depth] > 0.8 * by_depth[5]

    return Outcome(
        by_depth[2] / by_depth[5], details={"latency_by_depth": curve}
    )
