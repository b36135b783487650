"""Struct-of-arrays backend: simulated cycles/sec over the object model.

Times matched pairs of runs — ``backend="object"`` vs ``backend="soa"``
on identical configs — and asserts that (a) the records are
bit-identical (the conformance grid's contract, re-checked on the cells
we time) and (b) the SoA engine simulates at least 5x as many cycles
per second on the featured cell: the paper's 8x8 RoCo mesh under
uniform traffic at 0.05 flits/node/cycle with the full-sweep scheduler.

Full-sweep at low load is where the array engine's structural wins —
no per-flit objects, occupancy masks instead of attribute-chasing
sweeps — show up purest (~6.9x; ``RoCoRouter.allocate`` keeps the
original every-VC walk in its ``full_sweep`` branch, so the object side
of this cell still is that attribute-chasing sweep).  The other cells
are informational and floored at 1.5x, because there the object model
consults occupancy too: the generic router's allocate phase is
occupancy-first under both schedulers (``generic-sweep`` ~2.8x), and on
the loaded active-scheduler points both backends skip dormant routers
and empty VCs (``roco-active`` ~2.3x, ``generic-active`` ~1.9x).  The
two generic cells read ~1.5x and ~1.3x while the array engine's generic
SA built lists and dicts per call; it now runs on packed request masks
like the RoCo block (docs/vectorized-core.md).  Ten runs at that commit
bottomed at 2.36x, 2.23x and 1.78x, which is what the 1.5x floor
leaves a margin under.  ``soa c/s`` is the column to watch when a ratio
moves: it tells a faster denominator from a slower array engine.

Methodology matches ``bench_activity_core``: CPU time via
``process_time``, min over repeated interleaved pairs — external load
only ever adds time, so the minimum is the most reproducible estimator.
The registered *headline* is the deterministic conformant-cell fraction
(the gate's drift check needs a noise-free metric), floored at 1.0 on
every tier.  The measured speedups are printed, never written to the
artifact (which holds nothing machine-dependent); the 5x and 1.5x
floors are ``Threshold.check``s inside the registered function at the
full tier only — two quick-tier pairs on a shared CI runner are too
noisy to gate on, and no comparison ever reads a timing.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.core.config import SimulationConfig
from repro.core.simulator import run_simulation
from repro.harness.benchbed import Outcome, Threshold, benchmark
from repro.harness.export import result_record

#: Required SoA/object cycles-per-second ratio on the featured cell.
SPEEDUP_FLOOR = 5.0

#: Floor of the other cells (min of ten runs at the commit that set it:
#: generic-sweep 2.36x, roco-active 2.23x, generic-active 1.78x).
INFORMATIONAL_FLOOR = 1.5

#: Repeated pairs on the featured cell; min-of-N absorbs machine noise.
REPEATS = 5

#: (label, injection rate, full_sweep, router).  First row is featured.
CELLS = (
    ("roco-sweep", 0.05, True, "roco"),
    ("generic-sweep", 0.05, True, "generic"),
    ("roco-active", 0.20, False, "roco"),
    ("generic-active", 0.20, False, "generic"),
)


def cell_config(
    rate: float, router: str, warmup: int, measure: int
) -> SimulationConfig:
    return SimulationConfig(
        width=8,
        height=8,
        router=router,
        routing="xy",
        traffic="uniform",
        injection_rate=rate,
        seed=7,
        warmup_packets=warmup,
        measure_packets=measure,
        max_cycles=40_000,
    )


def timed_pair(config: SimulationConfig, full_sweep: bool):
    """One interleaved object/SoA pair on the same config."""
    t0 = time.process_time()
    reference = run_simulation(config, full_sweep=full_sweep)
    t1 = time.process_time()
    fast = run_simulation(replace(config, backend="soa"), full_sweep=full_sweep)
    t2 = time.process_time()
    return reference, fast, t1 - t0, t2 - t1


def measure(cells, repeats: int, warmup: int, measure_pkts: int, absorb):
    rows = []
    for index, (label, rate, full_sweep, router) in enumerate(cells):
        pair_count = repeats if index == 0 else 2
        object_times, soa_times = [], []
        cycles = None
        match = True
        for _ in range(pair_count):
            config = cell_config(rate, router, warmup, measure_pkts)
            reference, fast, t_obj, t_soa = timed_pair(config, full_sweep)
            match = match and result_record(fast) == result_record(reference)
            absorb(reference)
            absorb(fast)
            object_times.append(t_obj)
            soa_times.append(t_soa)
            cycles = reference.cycles
        t_obj, t_soa = min(object_times), min(soa_times)
        rows.append(
            {
                "cell": label,
                "match": match,
                "cycles": cycles,
                "object_s": t_obj,
                "soa_s": t_soa,
                "object_cps": cycles / max(t_obj, 1e-9),
                "soa_cps": cycles / max(t_soa, 1e-9),
                "speedup": t_obj / max(t_soa, 1e-9),
            }
        )
    return rows


def render_rows(rows) -> str:
    lines = [
        f"{'cell':>14} {'match':>5} {'cycles':>7} {'object':>9} {'soa':>9} "
        f"{'obj c/s':>9} {'soa c/s':>9} {'speedup':>8}"
    ]
    for row in rows:
        lines.append(
            f"{row['cell']:>14} {'yes' if row['match'] else 'NO':>5} "
            f"{row['cycles']:>7} {row['object_s']:>8.3f}s "
            f"{row['soa_s']:>8.3f}s {row['object_cps']:>9.0f} "
            f"{row['soa_cps']:>9.0f} {row['speedup']:>7.2f}x"
        )
    return "\n".join(lines)


@benchmark(
    "backend_soa",
    headline="conformant_cells",
    unit="fraction",
    direction="higher",
    floor=1.0,
)
def bench(ctx):
    """Fraction of timed cells where both backends agree bit-for-bit."""
    cells = ctx.pick(quick=CELLS[:1], full=CELLS)
    repeats = ctx.pick(quick=2, full=REPEATS)
    warmup, measure_pkts = ctx.pick(quick=(60, 250), full=(150, 900))
    rows = measure(cells, repeats, warmup, measure_pkts, ctx.absorb)
    table = render_rows(rows)
    print(table)

    assert rows[0]["cell"] == "roco-sweep"
    assert all(row["match"] for row in rows), "backends diverged on a timed cell"
    # The featured cell's 5x floor and the other cells' informational
    # one.  The other cells must still be clear wins, just not 5x ones:
    # the object model's generic allocate phase is occupancy-first under
    # both schedulers, and the active scheduler already skips dormant
    # routers for the object model.
    featured_floor, other_floor = ctx.pick(
        quick=(None, None), full=(SPEEDUP_FLOOR, INFORMATIONAL_FLOOR)
    )
    Threshold("soa_speedup_roco_sweep", floor=featured_floor).check(
        rows[0]["speedup"], context=table
    )
    for row in rows[1:]:
        Threshold(f"soa_speedup_{row['cell']}", floor=other_floor).check(
            row["speedup"], context=table
        )
    return Outcome(
        sum(row["match"] for row in rows) / len(rows),
        details={
            "cells": [
                {key: row[key] for key in ("cell", "match", "cycles")}
                for row in rows
            ]
        },
    )
