"""Activity-driven scheduling core: how much of the mesh sleeps.

Runs the active-set scheduler on the paper's 8x8 RoCo mesh under
uniform traffic at three operating points and records the *duty cycle*
— router steps taken over router-cycles available — of each.  The duty
cycle is the deterministic quantity that bounds what skipping dormant
routers can save (1/0.578 = 1.73x at 0.1 flits/node/cycle on the BENCH
scale), so it is the headline: it must stay at or under 0.7 at the low
operating point, where most routers are dormant most cycles, and sit
above that at every higher load as the mesh fills.

That the active scheduler produces the full sweep's records bit for bit
is tests/test_engines_agree.py's ``object`` row; what it saves in
wall time is perfbench's (``core.scheduler.duty_cycle`` next to
``object_cycles_per_s`` on ``mesh8_lowload``, perfbench/README.md).
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.harness.benchbed import Outcome, benchmark

#: Operating points in flits/node/cycle (``injection_rate``'s unit).
RATES = (0.1, 0.3, 0.5)

#: Largest duty cycle allowed at the 0.1 flits/node/cycle point.
DUTY_CEILING = 0.7


def scheduling_config(rate: float, warmup: int, measure: int) -> SimulationConfig:
    return SimulationConfig(
        width=8,
        height=8,
        router="roco",
        routing="xy",
        traffic="uniform",
        injection_rate=rate,
        seed=7,
        warmup_packets=warmup,
        measure_packets=measure,
        max_cycles=40_000,
    )


@benchmark(
    "activity_core",
    headline="duty_cycle_low_load",
    unit="fraction",
)
def bench(ctx):
    """Low-load duty cycle of the active-set scheduler (bounds speedup)."""
    warmup, measure = ctx.pick(quick=(60, 250), full=(150, 900))
    duties = [
        ctx.run(scheduling_config(rate, warmup, measure)).scheduler.duty_cycle
        for rate in RATES
    ]
    print(f"{'rate':>6} {'duty':>6}")
    for rate, duty in zip(RATES, duties):
        print(f"{rate:>6.2f} {duty:>6.3f}")

    # The saving comes from skipped router-cycles: most of the mesh must
    # sleep at the low point, and less of it at every higher load.
    assert duties[0] <= DUTY_CEILING, duties
    assert all(duty > duties[0] for duty in duties[1:]), duties

    return Outcome(duties[0], details={"duty_by_rate": list(zip(RATES, duties))})
