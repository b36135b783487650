"""Reproduces Figure 2 — VA arbiter inventory comparison."""

from repro.harness import figure2, report
from repro.harness.benchbed import Outcome, benchmark

#: VCs per port in the paper's configuration.
V = 3


@benchmark(
    "fig2_arbiters",
    headline="request_line_ratio_generic_over_roco",
    unit="x",
)
def bench(ctx):
    """Analytic arbiter inventory: how much wiring RoCo saves (R=>v)."""
    ctx.stamp(analytic=True, v=V)
    data = figure2(V)
    rows = [
        [
            name,
            f"{inv.first_stage_count} x {inv.first_stage_width}:1",
            f"{inv.second_stage_count} x {inv.second_stage_width}:1",
            inv.total_request_lines,
        ]
        for name, inv in data.items()
    ]
    print(
        report.render_table(
            ["allocator", "stage 1", "stage 2", "request lines"],
            rows,
            title=f"== Figure 2: VA arbiter inventory (v = {V}) ==",
        )
    )

    # "SMALLER (2v:1 vs 5v:1) and FEWER (4v vs 5v) arbiters".
    assert data["generic R=>v"].second_stage_count == 5 * V
    assert data["roco R=>v"].second_stage_count == 4 * V
    assert data["generic R=>v"].second_stage_width == 5 * V
    assert data["roco R=>v"].second_stage_width == 2 * V
    for variant in ("R=>v", "R=>P"):
        assert (
            data[f"roco {variant}"].total_request_lines
            < data[f"generic {variant}"].total_request_lines
        )

    generic = data["generic R=>v"].total_request_lines
    roco = data["roco R=>v"].total_request_lines
    return Outcome(
        generic / roco,
        details={
            "total_request_lines": {
                name: inv.total_request_lines for name, inv in data.items()
            }
        },
    )
