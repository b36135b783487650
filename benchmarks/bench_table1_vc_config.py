"""Reproduces Table 1 — VC buffer configuration per routing algorithm."""

from repro.harness import report, table1
from repro.harness.benchbed import Outcome, benchmark

#: The paper's Table 1, verbatim.
PAPER_TABLE = {
    "adaptive": {
        "row_port1": ["dx", "tyx", "Injxy"],
        "row_port2": ["dx", "dx", "tyx"],
        "column_port1": ["dy", "txy", "Injyx"],
        "column_port2": ["dy", "txy", "txy"],
    },
    "xy-yx": {
        "row_port1": ["dx", "tyx", "Injxy"],
        "row_port2": ["dx", "dx", "tyx"],
        "column_port1": ["dy", "txy", "Injyx"],
        "column_port2": ["dy", "dy", "txy"],
    },
    "xy": {
        "row_port1": ["dx", "dx", "Injxy"],
        "row_port2": ["dx", "dx", "Injxy"],
        "column_port1": ["dy", "txy", "Injyx"],
        "column_port2": ["dy", "dy", "txy"],
    },
}


@benchmark(
    "table1_vc_config",
    headline="table_match_fraction",
    unit="fraction",
)
def bench(ctx):
    """Fraction of Table-1 cells reproduced exactly (must be 1.0)."""
    ctx.stamp(analytic=True)
    data = table1()
    print(report.render_table1(data))

    # Exact reproduction of the paper's table.
    for mode in PAPER_TABLE:
        assert data[mode] == PAPER_TABLE[mode], mode

    cells = [
        (mode, port) for mode, ports in PAPER_TABLE.items() for port in ports
    ]
    matches = sum(
        1
        for mode, port in cells
        if data.get(mode, {}).get(port) == PAPER_TABLE[mode][port]
    )
    return Outcome(matches / len(cells), details={"table": data})
