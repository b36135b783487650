"""Experiment plumbing: scales, averaged points and seeded fault populations.

Every figure runner is parameterised by an :class:`ExperimentScale` so
the same code serves three purposes: fast CI benchmarks (``QUICK``),
meaningful local reproduction (``STANDARD``), and the paper's own
dimensions (``PAPER`` — 20,000 warm-up + 1,000,000 measured packets,
which take correspondingly long on a pure-Python simulator).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.config import SimulationConfig
from repro.core.types import ADAPTIVE, XY, XY_YX, RoutingMode, grid_nodes
from repro.faults.injector import ComponentFault, random_faults
from repro.harness.parallel import ParallelExecutor, SimJob

#: Router architectures in the order the paper's figures list them.
ROUTERS = ("generic", "path_sensitive", "roco")

#: Routing algorithms in figure order: (a) deterministic, (b) XY-YX,
#: (c) adaptive.
ROUTINGS = (XY, XY_YX, ADAPTIVE)


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs trading fidelity for wall-clock time."""

    name: str
    width: int = 8
    height: int = 8
    warmup_packets: int = 200
    measure_packets: int = 1200
    seeds: tuple[int, ...] = (1,)
    #: Injection-rate grid for the latency sweeps (flits/node/cycle).
    rates: tuple[float, ...] = (0.05, 0.15, 0.25, 0.30, 0.35)
    #: Injection-rate grid for the contention sweeps (extends past
    #: saturation, as in Figure 3).
    contention_rates: tuple[float, ...] = (0.05, 0.20, 0.35, 0.50)
    max_cycles: int = 60_000


QUICK = ExperimentScale(
    name="quick",
    width=6,
    height=6,
    warmup_packets=80,
    measure_packets=400,
    seeds=(1,),
    rates=(0.05, 0.20, 0.30),
    contention_rates=(0.10, 0.30, 0.50),
    max_cycles=30_000,
)

STANDARD = ExperimentScale(name="standard", seeds=(1, 2, 3))

PAPER = ExperimentScale(
    name="paper",
    warmup_packets=20_000,
    measure_packets=1_000_000,
    seeds=(1,),
    rates=(0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40),
    contention_rates=(0.05, 0.15, 0.25, 0.35, 0.45, 0.55),
    max_cycles=5_000_000,
)

SCALES = {s.name: s for s in (QUICK, STANDARD, PAPER)}


#: A point = one (router, routing, traffic, rate) cell, averaged over
#: the scale's seeds.  PointSpec is the hashable description of one.
@dataclass(frozen=True)
class PointSpec:
    router: str
    routing: RoutingMode | str
    traffic: str
    injection_rate: float

    def config(self, scale: ExperimentScale, seed: int) -> SimulationConfig:
        """This point at ``scale``'s mesh size and packet budget."""
        return SimulationConfig(
            width=scale.width,
            height=scale.height,
            router=self.router,
            routing=self.routing,
            traffic=self.traffic,
            injection_rate=self.injection_rate,
            warmup_packets=scale.warmup_packets,
            measure_packets=scale.measure_packets,
            max_cycles=scale.max_cycles,
            seed=seed,
        )

    def jobs(
        self,
        scale: ExperimentScale,
        faults_per_seed: dict[int, list[ComponentFault]] | None = None,
    ) -> list[SimJob]:
        """One job per seed of the scale, in seed order."""
        return [
            SimJob.of(
                self.config(scale, seed),
                faults_per_seed.get(seed) if faults_per_seed else None,
            )
            for seed in scale.seeds
        ]


#: Metric keys seed-averaged by aggregate_point, straight off the flat
#: records of repro.harness.export.result_record.
AVERAGED_METRICS = (
    "average_latency",
    "completion_probability",
    "energy_per_packet_nj",
    "pef",
    "throughput",
    "contention_row",
    "contention_column",
    "contention_overall",
)


def aggregate_point(spec: PointSpec, records: list[dict]) -> dict:
    """Seed-mean of the headline metrics for one point.

    Quarantined seeds (failure records from a resilient executor) are
    excluded from the mean; a point whose every seed failed raises,
    since there is nothing honest to report for it.
    """
    from repro.harness.parallel import is_failure_record

    records = [r for r in records if not is_failure_record(r)]
    if not records:
        raise RuntimeError(
            f"every seed of point {spec.router}/{spec.routing}/"
            f"{spec.traffic}@{spec.injection_rate} failed"
        )
    n = len(records)
    point = {
        "router": spec.router,
        "routing": str(spec.routing),
        "traffic": spec.traffic,
        "injection_rate": spec.injection_rate,
    }
    for metric in AVERAGED_METRICS:
        point[metric] = sum(r[metric] for r in records) / n
    return point


def averaged_points(
    specs: list[PointSpec],
    scale: ExperimentScale,
    faults: list[dict[int, list[ComponentFault]] | None] | None = None,
    executor: ParallelExecutor | None = None,
) -> list[dict]:
    """Run many points in one batch; one aggregated dict per spec.

    ``faults[i]``, when given, is spec i's ``{seed: faults}`` — aligned
    by position, so one spec may appear several times with different
    fault populations (the fault figures sweep the fault count at one
    operating point).  All (spec x seed) simulations are submitted to
    the executor as a single job list, so a parallel executor keeps
    every worker busy across the whole grid instead of parallelising
    one point at a time.  The default executor runs serially in-process.
    """
    if executor is None:
        executor = ParallelExecutor()
    if faults is None:
        faults = [None] * len(specs)
    jobs: list[SimJob] = []
    for spec, faults_per_seed in zip(specs, faults, strict=True):
        jobs.extend(spec.jobs(scale, faults_per_seed))
    records = executor.run_jobs(jobs)
    n = len(scale.seeds)
    return [
        aggregate_point(spec, records[i * n : (i + 1) * n])
        for i, spec in enumerate(specs)
    ]


def fault_population(
    scale: ExperimentScale, count: int, critical: bool, seed: int
) -> list[ComponentFault]:
    """Seeded random fault placement, identical across architectures.

    The same (seed, count, class) always yields the same fault sites so
    router comparisons see the same broken hardware.
    """
    rng = random.Random(10_000 + seed * 101 + count * 7 + (1 if critical else 0))
    return random_faults(
        grid_nodes(scale.width, scale.height), count, rng, critical=critical
    )
