"""Sharded tile engine: equivalence cells from 8x8 to 32x32.

Runs matched pairs — the reference vs the sharded tile engine
(docs/sharded-scaling.md) on identical configs — and asserts
record-level bit-identity on every cell.  The registered *headline* is
the equivalent-cell count, which the assertions hold at the number of
cells on every tier.  What the tiling costs in wall time — the tiles
are stepped one after another in this process, so a sharded cell pays
the reference's work plus the ghost halo, the boundary harvest and the
coordinator — is perfbench's ``shard_cycles_per_s`` and
``harness.sharded.vs_object_ratio`` on ``mesh16_scaleout``.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.simulator import Simulator
from repro.harness.benchbed import Outcome, benchmark
from repro.harness.sharded import compare_records, run_sharded_simulation

#: (label, k, shards, router, full_sweep).
CELLS = (
    ("8x8-2x2-roco", 8, (2, 2), "roco", False),
    ("8x8-2x2-generic", 8, (2, 2), "generic", False),
    ("8x8-1x2-roco-sweep", 8, (1, 2), "roco", True),
    ("16x16-2x2-roco", 16, (2, 2), "roco", False),
    ("16x16-2x2-generic", 16, (2, 2), "generic", False),
    ("32x32-4x4-roco", 32, (4, 4), "roco", False),
)


def cell_config(
    k: int, router: str, warmup: int, measure: int
) -> SimulationConfig:
    return SimulationConfig(
        width=k,
        height=k,
        router=router,
        routing="xy",
        traffic="uniform",
        injection_rate=0.15,
        warmup_packets=warmup,
        measure_packets=measure,
        seed=7,
        max_cycles=40_000,
    )


def measure(cells, warmup: int, measure_pkts: int, absorb):
    rows = []
    for label, k, shards, router, full_sweep in cells:
        config = cell_config(k, router, warmup, measure_pkts)
        reference = Simulator(config, full_sweep=full_sweep).run()
        sharded = run_sharded_simulation(
            config, shards, full_sweep=full_sweep
        )
        absorb(reference)
        absorb(sharded)
        mismatches = compare_records(reference, sharded)
        rows.append(
            {
                "cell": label,
                "match": not mismatches,
                "mismatches": mismatches,
                "cycles": reference.cycles,
                "tiles": len(sharded.tile_scheduler),
            }
        )
    return rows


def render_rows(rows) -> str:
    lines = [f"{'cell':>20} {'match':>5} {'cycles':>7} {'tiles':>5}"]
    for row in rows:
        lines.append(
            f"{row['cell']:>20} {'yes' if row['match'] else 'NO':>5} "
            f"{row['cycles']:>7} {row['tiles']:>5}"
        )
    return "\n".join(lines)


@benchmark(
    "sharded_scaling",
    headline="equivalent_cells",
    unit="cells",
)
def bench(ctx):
    """Cells where the sharded run is bit-identical to the reference."""
    cells = ctx.pick(quick=CELLS[:4], full=CELLS)
    warmup, measure_pkts = ctx.pick(quick=(40, 160), full=(80, 400))
    rows = measure(cells, warmup, measure_pkts, ctx.absorb)
    print(render_rows(rows))

    for row in rows:
        assert row["match"], (row["cell"], row["mismatches"])
    return Outcome(float(sum(row["match"] for row in rows)), details={"cells": rows})
