"""Activity-driven scheduling core: speedup over the full-sweep baseline.

Times matched pairs of runs — active-set scheduler vs ``full_sweep=True``
— on the paper's 8x8 RoCo mesh under uniform traffic at three operating
points, asserting that (a) both schedulers produce bit-identical result
records and (b) the active scheduler is at least 1.5x faster at the low
operating point (0.1 flits/node/cycle), where most routers are dormant
most cycles.

The measured ratio (~2.0x at 0.1) has two parts.  Skipping dormant
routers is bounded by the duty cycle (1/0.578 = 1.73x).  The rest is
per stepped router: the active path's allocate phase is
occupancy-first, while ``RoCoRouter.allocate`` keeps the original
every-VC walk in its ``full_sweep`` branch precisely so that this
benchmark keeps measuring against the seed's cost
(docs/activity-scheduling.md, "allocate-phase cost model").

Methodology notes: the headline ratio uses CPU time (``process_time``)
and the min over repeated interleaved pairs — external load only ever
*adds* time, so the minimum is the most reproducible estimator of the
true cost (the same reasoning behind ``timeit``'s ``min``).  At higher
loads the duty cycle approaches 1 and only the per-step difference is
left (~1.3x), so those points only assert equivalence and report the
measured ratio.

The registered benchmark's *headline* is the deterministic low-load duty
cycle (the quantity that bounds the achievable speedup), not the noisy
wall-clock ratio.  The measured speedup is printed, never written to
the artifact (which holds nothing machine-dependent), and floored at
1.5x by a ``Threshold.check`` inside the registered function at the
full tier only: one quick-tier pair on a shared CI runner is too noisy
to gate on, and no comparison ever reads a timing.
"""

from __future__ import annotations

import time

from repro.core.config import SimulationConfig
from repro.core.simulator import run_simulation
from repro.harness.benchbed import Outcome, Threshold, benchmark
from repro.harness.export import result_record

#: Operating points in flits/node/cycle (``injection_rate``'s unit).
RATES = (0.1, 0.3, 0.5)

#: Repeated pairs at the headline rate; min-of-N absorbs machine noise.
REPEATS = 9

#: Required speedup at the 0.1 flits/node/cycle operating point.
SPEEDUP_FLOOR = 1.5


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


def timed_pair(rate: float, warmup: int, measure_pkts: int):
    """One interleaved active/full-sweep pair: (records?, times)."""
    config = scheduling_config(rate, warmup, measure_pkts)
    t0 = time.process_time()
    active = run_simulation(config)
    t1 = time.process_time()
    sweep = run_simulation(
        scheduling_config(rate, warmup, measure_pkts), full_sweep=True
    )
    t2 = time.process_time()
    return active, sweep, t1 - t0, t2 - t1


def measure(rates, repeats: int, warmup: int, measure_pkts: int, absorb):
    rows = []
    for rate in rates:
        pair_count = repeats if rate == rates[0] else 2
        active_times, sweep_times = [], []
        duty = None
        for _ in range(pair_count):
            active, sweep, ta, ts = timed_pair(rate, warmup, measure_pkts)
            assert result_record(active) == result_record(sweep), (
                f"schedulers diverged at rate {rate}"
            )
            absorb(active)
            absorb(sweep)
            active_times.append(ta)
            sweep_times.append(ts)
            duty = active.scheduler.duty_cycle
        rows.append(
            {
                "rate": rate,
                "active_s": min(active_times),
                "sweep_s": min(sweep_times),
                "speedup": min(sweep_times) / max(min(active_times), 1e-9),
                "duty": duty,
            }
        )
    return rows


def render_rows(rows) -> str:
    lines = [
        f"{'rate':>6} {'active':>9} {'sweep':>9} {'speedup':>8} {'duty':>6}"
    ]
    for row in rows:
        lines.append(
            f"{row['rate']:>6.2f} {row['active_s']:>8.3f}s "
            f"{row['sweep_s']:>8.3f}s {row['speedup']:>7.2f}x "
            f"{row['duty']:>6.3f}"
        )
    return "\n".join(lines)


@benchmark(
    "activity_core",
    headline="duty_cycle_low_load",
    unit="fraction",
    direction="lower",
    ceiling=0.7,
)
def bench(ctx):
    """Low-load duty cycle of the active-set scheduler (bounds speedup)."""
    rates = ctx.pick(quick=(0.1,), full=RATES)
    repeats = ctx.pick(quick=1, full=REPEATS)
    warmup, measure_pkts = ctx.pick(quick=(60, 250), full=(150, 900))
    rows = measure(rates, repeats, warmup, measure_pkts, ctx.absorb)
    table = render_rows(rows)
    print(table)

    low = rows[0]
    assert low["rate"] == 0.1
    # Headline criterion: >= 1.5x single-run speedup at 0.1 flits/node/
    # cycle uniform traffic on the 8x8 mesh.  The threshold carries the
    # measured table into the failure message, so a noisy runner
    # produces a diagnosable report, not a bare AssertionError.
    Threshold(
        "activity_speedup_low_load",
        floor=ctx.pick(quick=None, full=SPEEDUP_FLOOR),
    ).check(low["speedup"], context=table)
    # Higher loads: equivalence held (asserted in measure()); the duty
    # cycle rises towards 1 and the advantage legitimately shrinks.
    for row in rows[1:]:
        assert row["duty"] > low["duty"]

    # The saving must come from skipped router-cycles, not anything else:
    # the duty cycle bounds the achievable speedup from below, so its
    # ceiling (0.7 registered above, 0.75 at the quick scale) is the
    # deterministic half of the contract.
    return Outcome(
        low["duty"],
        details={"duty_by_rate": [(row["rate"], row["duty"]) for row in rows]},
        ceiling=ctx.pick(quick=0.75, full=None),
    )
