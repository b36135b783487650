"""Shared scales and helpers for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper at the
``BENCH`` scale (sized so the whole suite runs in minutes on a laptop),
asserts the figure's *shape targets* — who wins and by roughly what
factor — prints the paper-style rows and returns its headline.  Swap
``BENCH`` for ``repro.harness.PAPER`` to run the paper's full
dimensions.

The one runner is the benchbed (``python -m repro bench``,
docs/benchmarking.md): it hands every benchmark a ``BenchContext``
whose executor carries ``--workers``.  Parallel and cached runs produce
records identical to serial ones (the simulator is a pure function of
its seeded config), so the shape assertions hold under either.
"""

from __future__ import annotations

from repro.harness import ExperimentScale

#: Benchmark scale: the paper's 8x8 mesh with reduced packet counts.
BENCH = ExperimentScale(
    name="bench",
    width=8,
    height=8,
    warmup_packets=150,
    measure_packets=900,
    seeds=(7,),
    rates=(0.05, 0.20, 0.30),
    contention_rates=(0.10, 0.30, 0.50),
    max_cycles=40_000,
)

#: Smaller scale for the fault sweeps (each fault run drains slowly).
BENCH_FAULTS = ExperimentScale(
    name="bench-faults",
    width=8,
    height=8,
    warmup_packets=100,
    measure_packets=500,
    seeds=(7,),
    rates=(0.30,),
    max_cycles=30_000,
)


def curve_value(data, routing: str, router: str, rate: float) -> float:
    """Look up one point of a latency-curve figure.

    Figures 8-10 return ``{routing: {router: [(rate, latency), ...]}}``;
    this indexes one point regardless of the rate grid in use, so the
    same lookup works at both the quick and full benchmark tiers.
    """
    return dict(data[routing][router])[rate]
