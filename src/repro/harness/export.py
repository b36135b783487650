"""Result serialization: JSON records and CSV sweeps.

Turns :class:`~repro.core.simulator.SimulationResult` objects into
plain records for notebooks, plotting scripts and archival — the
deliverable format of a reproduction run.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

from repro.core.simulator import SimulationResult

#: Flat fields exported for every run, in column order.
RESULT_FIELDS = (
    "router",
    "routing",
    "traffic",
    "injection_rate",
    "width",
    "height",
    "seed",
    "average_latency",
    "p50_latency",
    "p95_latency",
    "p99_latency",
    "average_hops",
    "throughput",
    "injected_packets",
    "delivered_packets",
    "dropped_packets",
    "completion_probability",
    "energy_per_packet_nj",
    "dynamic_energy_j",
    "leakage_energy_j",
    "edp",
    "pef",
    "contention_row",
    "contention_column",
    "contention_overall",
    "cycles",
    "num_faults",
)


def result_record(result: SimulationResult) -> dict:
    """Flatten a result into one JSON/CSV-friendly dict."""
    config = result.config
    return {
        "router": config.router,
        "routing": config.routing.value,
        "traffic": config.traffic,
        "injection_rate": config.injection_rate,
        "width": config.width,
        "height": config.height,
        "seed": config.seed,
        "average_latency": result.average_latency,
        "p50_latency": result.latency.p50,
        "p95_latency": result.latency.p95,
        "p99_latency": result.latency.p99,
        "average_hops": result.average_hops,
        "throughput": result.throughput,
        "injected_packets": result.injected_packets,
        "delivered_packets": result.delivered_packets,
        "dropped_packets": result.dropped_packets,
        "completion_probability": result.completion_probability,
        "energy_per_packet_nj": result.energy_per_packet_nj,
        "dynamic_energy_j": result.energy.dynamic,
        "leakage_energy_j": result.energy.leakage,
        "edp": result.edp,
        "pef": result.pef,
        "contention_row": result.contention_row,
        "contention_column": result.contention_column,
        "contention_overall": result.contention_overall,
        "cycles": result.cycles,
        "num_faults": len(result.faults),
    }


def write_json(results: Iterable[SimulationResult], path: str | Path) -> Path:
    """Write results as a JSON array of flat records."""
    path = Path(path)
    records = [result_record(r) for r in results]
    path.write_text(json.dumps(records, indent=2) + "\n")
    return path


def write_csv(results: Iterable[SimulationResult], path: str | Path) -> Path:
    """Write results as a CSV with the :data:`RESULT_FIELDS` columns."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=RESULT_FIELDS)
        writer.writeheader()
        for result in results:
            writer.writerow(result_record(result))
    return path
