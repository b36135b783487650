"""Reproduces Figure 3 — contention probabilities vs offered load."""

from conftest import BENCH, curve_value

from repro.harness import figure3, report
from repro.harness.benchbed import Outcome, benchmark


@benchmark(
    "fig3_contention",
    headline="row_contention_ratio_generic_over_roco",
    unit="x",
)
def bench(ctx):
    """How much more row-input contention the generic router suffers."""
    scale = ctx.scale(BENCH)
    data = figure3(scale, executor=ctx.executor)
    for panel, title in (
        ("row_xy", "(a) row input, XY routing"),
        ("column_xy", "(b) column input, XY routing"),
        ("adaptive", "(c) adaptive routing"),
    ):
        print(
            report.render_curves(
                data[panel],
                x_label="inj rate",
                title=f"== Figure 3 {title} ==",
            )
        )
        print()

    low, high = scale.contention_rates[0], scale.contention_rates[-1]

    def at(panel, router, rate):
        return curve_value(data, panel, router, rate)

    # Shape target: the generic router suffers the highest contention;
    # RoCo the least (Figure 3's headline).
    for panel in ("row_xy", "adaptive"):
        assert at(panel, "generic", high) > at(panel, "roco", high)

    # Contention grows with offered load for every router.
    for router in ("generic", "path_sensitive", "roco"):
        assert at("row_xy", router, high) >= at("row_xy", router, low)

    # Under XY, row inputs contend more than column inputs for the
    # generic router ("X first, Y next" asymmetry, Section 3.2).
    assert at("row_xy", "generic", high) > at("column_xy", "generic", high)

    generic = at("row_xy", "generic", high)
    roco = at("row_xy", "roco", high)
    return Outcome(generic / max(roco, 1e-9), details={"panels": data})
