"""Reproduces Table 2 — non-blocking probabilities of the three crossbars."""

from math import isclose

from repro.analysis import non_blocking_assignments
from repro.harness import report, table2
from repro.harness.benchbed import Outcome, benchmark


@benchmark(
    "table2_matching",
    headline="roco_non_blocking_probability",
    unit="probability",
)
def bench(ctx):
    """RoCo's analytic non-blocking probability (paper: 0.25)."""
    ctx.stamp(analytic=True, n=5)
    data = table2()
    print(report.render_table2(data))

    # Paper values: 0.043, 0.125, 0.25.
    assert isclose(data["generic"], 0.043, abs_tol=5e-4)
    assert isclose(data["path_sensitive"], 0.125)
    assert isclose(data["roco"], 0.25)

    # "Almost six times more likely ... and two times more likely."
    assert isclose(data["roco"] / data["generic"], 5.8, abs_tol=0.2)
    assert isclose(data["roco"] / data["path_sensitive"], 2.0)

    # Equation (1) consistency behind the generic number: F(5) = 44.
    assert non_blocking_assignments(5) == 44

    return Outcome(data["roco"], details=dict(data))
