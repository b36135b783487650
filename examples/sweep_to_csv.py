"""Custom study workflow: sweep a parameter grid, export, pivot.

Shows the generic-study API that the fixed per-figure runners do not
cover: build a :class:`~repro.harness.sweeps.Sweep`, run it on an
executor with a progress callback, save the raw records to CSV/JSON, and
pivot a metric into a table.

Run with::

    python examples/sweep_to_csv.py [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro.core.config import SimulationConfig
from repro.core.simulator import run_simulation
from repro.harness import report
from repro.harness.export import write_csv, write_json
from repro.harness.parallel import ParallelExecutor
from repro.harness.sweeps import Sweep, pivot


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    out_dir.mkdir(parents=True, exist_ok=True)

    sweep = Sweep(
        axes={
            "router": ["generic", "path_sensitive", "roco"],
            "injection_rate": [0.10, 0.20, 0.30],
            "seed": [1, 2],
        },
        base={
            "width": 8,
            "height": 8,
            "routing": "xy",
            "traffic": "uniform",
            "warmup_packets": 120,
            "measure_packets": 700,
        },
    )
    print(f"Running {sweep.size} configurations on 2 workers ...")
    executor = ParallelExecutor(
        workers=2,
        progress=lambda done, total, record: print(
            f"  [{done:2d}/{total}] {record['router']:>14s} "
            f"rate={record['injection_rate']:.2f} seed={record['seed']} "
            f"lat={record['average_latency']:7.2f} cyc"
        ),
    )
    records = sweep.run(executor)

    # Re-run each configuration object through the exporters as full
    # SimulationResult records (the sweep already returns flat dicts; we
    # regenerate two of them as results to demo the exporters too).
    sample_results = [
        run_simulation(config) for config in list(sweep.configurations())[:2]
    ]
    csv_path = write_csv(sample_results, out_dir / "sample.csv")
    json_path = write_json(sample_results, out_dir / "sample.json")

    table = pivot(records, row="router", column="injection_rate", value="average_latency")
    curves = {
        router: sorted(cols.items()) for router, cols in table.items()
    }
    print()
    print(
        report.render_curves(
            curves, x_label="inj rate", title="== latency pivot (mean over seeds) =="
        )
    )
    print(f"\nraw records: {csv_path} and {json_path}")


if __name__ == "__main__":
    main()
