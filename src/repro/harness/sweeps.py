"""Parameter sweeps: run cartesian grids of configurations.

A :class:`Sweep` expands axes (router, routing, traffic, rate, seed,
mesh size, ...) into configurations, runs them, and returns the results
as records ready for :mod:`repro.harness.export` or ad-hoc analysis.
This is the workhorse behind custom studies that the fixed per-figure
runners do not cover.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

from repro.core.config import SimulationConfig
from repro.faults.schedule import FaultSchedule
from repro.harness.parallel import ParallelExecutor, SimJob


@dataclass
class Sweep:
    """A cartesian sweep over simulation parameters.

    ``axes`` maps :class:`SimulationConfig` field names to the values to
    sweep; ``base`` carries everything held constant.  Example::

        sweep = Sweep(
            axes={"router": ["generic", "roco"],
                  "injection_rate": [0.1, 0.2, 0.3]},
            base={"width": 8, "height": 8, "measure_packets": 800},
        )
        records = sweep.run()
    """

    axes: dict[str, list]
    base: dict = field(default_factory=dict)
    #: Optional runtime fault campaign applied to *every* grid point —
    #: the shape degradation studies want (identical fault timeline,
    #: varying architecture/rate).  Part of each job's cache key.
    schedule: FaultSchedule | None = None

    def __post_init__(self) -> None:
        unknown = set(self.axes) - {f.name for f in fields(SimulationConfig)}
        if unknown:
            raise ValueError(f"unknown sweep axes: {sorted(unknown)}")
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")

    @property
    def size(self) -> int:
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size

    def configurations(self) -> Iterable[SimulationConfig]:
        """Yield every configuration of the grid, in axis order."""
        names = list(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            params = dict(self.base)
            params.update(dict(zip(names, combo)))
            yield SimulationConfig(**params)

    def run(self, executor: ParallelExecutor | None = None) -> list[dict]:
        """Run the grid; returns one flat record per configuration.

        ``executor`` decides how: its ``workers`` fan the grid out over
        a process pool, its ``cache`` skips already-simulated points,
        its ``progress`` is called after each completed point, its
        ``policy`` / ``journal`` supervise and resume the sweep (see
        :class:`~repro.harness.parallel.ParallelExecutor`).  Records are
        identical whichever executor runs them and come back in grid
        order; the default runs serially in this process.
        """
        if executor is None:
            executor = ParallelExecutor()
        return executor.run_jobs(
            [
                SimJob.of(config, schedule=self.schedule)
                for config in self.configurations()
            ]
        )


def pivot(
    records: list[dict], row: str, column: str, value: str
) -> dict[object, dict[object, float]]:
    """Arrange flat sweep records as ``{row: {column: value}}``.

    Multiple records landing in one cell are averaged (e.g. seeds).
    """
    cells: dict[object, dict[object, list[float]]] = {}
    for record in records:
        cells.setdefault(record[row], {}).setdefault(record[column], []).append(
            record[value]
        )
    return {
        r: {c: sum(vals) / len(vals) for c, vals in cols.items()}
        for r, cols in cells.items()
    }
