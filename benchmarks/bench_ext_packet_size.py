"""Extension: packet-size sensitivity.

The paper fixes packets at four 128-bit flits.  This extension sweeps
worm length and checks the serialization model: unloaded latency grows
by ~1 cycle per extra flit, and long worms hold VCs longer, dragging
saturation in earlier.
"""

from repro.core.config import SimulationConfig
from repro.harness import report
from repro.harness.benchbed import Outcome, benchmark

SIZES = (1, 2, 4, 8)
LOW_RATE, HIGH_RATE = 0.05, 0.30


def latency(flits: int, rate: float, sim, warmup: int, measure: int) -> float:
    config = SimulationConfig(
        width=8,
        height=8,
        router="roco",
        routing="xy",
        traffic="uniform",
        injection_rate=rate,
        flits_per_packet=flits,
        warmup_packets=warmup,
        measure_packets=measure,
        seed=7,
        max_cycles=60_000,
    )
    return sim(config).average_latency


@benchmark(
    "ext_packet_size",
    headline="serialization_cycles_1_to_4_flits",
    unit="cycles",
)
def bench(ctx):
    """Unloaded latency cost of growing worms from 1 to 4 flits."""
    sizes = ctx.pick(quick=(1, 4), full=SIZES)
    rates = ctx.pick(quick=(LOW_RATE,), full=(LOW_RATE, HIGH_RATE))
    warmup, measure = ctx.pick(quick=(60, 250), full=(120, 700))
    curves = {
        f"rate {rate}": [
            (s, latency(s, rate, ctx.run, warmup, measure)) for s in sizes
        ]
        for rate in rates
    }
    print(
        report.render_curves(
            curves,
            x_label="flits/pkt",
            title="== Extension: packet-size sensitivity (RoCo, latency) ==",
        )
    )

    def span(curve):
        return curve[sizes[-1]] - curve[sizes[0]]

    low = dict(curves[f"rate {LOW_RATE}"])
    # Unloaded: each extra flit adds ~1 serialization cycle.
    assert 2.0 <= low[4] - low[1] <= 6.0
    assert all(low[a] < low[b] for a, b in zip(sizes, sizes[1:]))
    # Loaded: longer worms hold VCs longer; the penalty grows superlinearly.
    for rate in rates[1:]:
        assert span(dict(curves[f"rate {rate}"])) > span(low)

    return Outcome(low[4] - low[1], details={"curves": curves})
