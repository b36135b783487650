"""Reproduces Figure 13 — energy per packet at 30% injection."""

from conftest import BENCH

from repro.harness import figure13, report
from repro.harness.benchbed import Outcome, benchmark


@benchmark(
    "fig13_energy",
    headline="mean_energy_saving_vs_generic",
    unit="fraction",
)
def bench(ctx):
    """RoCo's energy-per-packet saving vs generic, averaged over traffic."""
    scale = ctx.scale(BENCH)
    data = figure13(scale, executor=ctx.executor)
    print(report.render_figure13(data))

    savings = []
    for traffic, per_router in data.items():
        # Ordering: RoCo < Path-Sensitive < generic (Section 5.4).
        assert per_router["roco"] < per_router["path_sensitive"], traffic
        assert per_router["path_sensitive"] < per_router["generic"], traffic

        # Magnitudes: "about 20% lower ... compared to the generic router,
        # and about 6% lower compared to the Path-Sensitive router".
        vs_generic = 1 - per_router["roco"] / per_router["generic"]
        vs_ps = 1 - per_router["roco"] / per_router["path_sensitive"]
        assert 0.10 <= vs_generic <= 0.40, (traffic, vs_generic)
        assert 0.02 <= vs_ps <= 0.20, (traffic, vs_ps)
        savings.append(vs_generic)

        # Absolute scale lands in the paper's sub-nJ-per-packet regime.
        for router, energy in per_router.items():
            assert 0.2 <= energy <= 2.0, (traffic, router, energy)

    return Outcome(
        sum(savings) / len(savings), details={"energy_per_packet_nj": data}
    )
