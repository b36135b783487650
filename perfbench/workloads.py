"""The six workloads: inputs from a seed, one round of work, output checks.

Every workload is *fixed work per round*: a round runs the same units
(simulation cells, sweep passes, request phases) in the same order, and
the runner repeats rounds until its time budget is spent.  A unit's time
is its median over the rounds; throughput is sum of work over sum of
median walls.  Counts therefore repeat exactly for a seed while the
number of rounds adapts to the host.

The program under test only ever sees generated configs, jobs and
requests; the seed never reaches it except through them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import statistics
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from repro.core.config import SimulationConfig
from repro.core.simulator import DeadlockError, run_simulation
from repro.core.soa.layout import build_layout
from repro.core.types import NodeId
from repro.faults.injector import random_faults
from repro.faults.schedule import FaultSchedule
from repro.harness.export import result_record
from repro.harness.parallel import (
    ParallelExecutor,
    ResultCache,
    SimJob,
    execute_job,
    is_failure_record,
    pool_fallback_reason,
)
from repro.harness.resilient import ManagedWorkerSet, RetryPolicy, SweepJournal
from repro.harness.sharded import run_sharded_simulation
from repro.serve.broker import JobBroker
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import normalize_request
from repro.serve.server import ServerThread

from perfbench.hostspeed import HostSpeed

#: The box has 2 cores: pools, the server and the shard tiling stay at 2.
WORKERS = 2
SHARDS = (2, 1)
#: Closed-loop clients of ``serve_mix``: each waits for its reply before
#: sending the next request.
CLIENTS = 2
#: ``serve_mix`` draws its simulation seeds from 1..SEED_POOL.  About one
#: 8x8 seed in a few thousand ends in the engine's no-progress
#: ``DrainTimeoutError`` even at 0.10 (ROADMAP item 5), and a served
#: deadlock is a failed request; the request shape below (RoCo/XY/uniform
#: at 0.10, 100+400 packets) was run on every seed of the pool and
#: finished on all of them.
SEED_POOL = 3000
#: Realisations one run may drop as deadlocking before it gives up.
MAX_SCREENED = 3


class FallbackError(RuntimeError):
    """The program silently took a slower path than the one being timed."""


def digest(record: dict) -> str:
    """Canonical digest of one ``result_record``."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(count * scale))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Sample:
    """One timed unit of one round."""

    unit: str  # the same label every round
    path: str  # which path of the program ran it
    work: float  # simulated packets, jobs or requests
    wall: float  # host seconds
    started: float  # perf_counter() when it began: finds the probes around it
    cycles: int = 0  # simulated cycles (engine units only)


@dataclass
class Workload:
    """Shared bookkeeping: operations, failures and record digests."""

    seed: int
    scale: float
    workdir: Path
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    #: Class, wall seconds and start of every user-visible operation.
    ops: list[tuple[str, float, float]] = field(default_factory=list)
    #: label -> digest of the first record seen under that label; every
    #: later record under the label must match it.
    digests: dict[str, str] = field(default_factory=dict)
    #: Set for the traced pass only (a ``perfbench.tracing.Tracer``).
    tracer: object = None
    #: Probed before every unit (or block of very short units); the
    #: runner probes once more after the last.
    host: HostSpeed = field(default_factory=HostSpeed)

    name = ""
    #: The cheapest path the workload's inputs can take: its samples
    #: alone give ``fast_path_per_s``, which the slow paths' wall would
    #: otherwise drown out of ``work_per_s``.
    fast_path = ""
    #: Whether the traced pass also wraps the per-router-per-cycle
    #: boundaries (too slow for the harness workloads, whose simulations
    #: run in worker processes anyway).
    fine_trace = False

    def __post_init__(self) -> None:
        """Subclasses build their inputs from the seed here."""

    def op(self, label: str):
        """Context of one operation: its spans carry ``label``."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.operation(f"{self.name}/{label}")

    def note(self, label: str, record: dict) -> None:
        """Check ``record`` against what ``label`` produced before."""
        found = digest(record)
        if self.digests.setdefault(label, found) != found:
            self.mismatches += 1

    def setup(self) -> None:
        """Boot whatever the timed rounds need warm."""

    def round(self, index: int) -> list[Sample]:
        raise NotImplementedError

    def extras(self) -> list[Sample]:
        """Units only the traced run needs (ratios against other paths)."""
        return []

    def finale(self) -> list[Sample]:
        """Timed work that happens once, after the last round."""
        return []

    def verify(self) -> None:
        """Untimed output checks against an independent reference."""

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def pinned(self) -> dict[str, str]:
        """The digests to pin for the default seed."""
        raise NotImplementedError

    def layer_counts(self) -> dict[str, float]:
        """Per-layer numbers read off public result objects."""
        return {}


# ----------------------------------------------------------------------
# Engine workloads
# ----------------------------------------------------------------------


@dataclass
class Cell:
    key: str  # router/routing/traffic[/faults]: equal across paths
    path: str  # object | soa | shard | shard_inline
    config: SimulationConfig
    faults: tuple = ()
    schedule: FaultSchedule | None = None

    @property
    def unit(self) -> str:
        return f"{self.path}:{self.key}"


@dataclass
class MeshWorkload(Workload):
    """``run_simulation`` over a grid of cells, object backend first.

    The object record of a cell is the reference: the SoA and sharded
    runs of the same cell must reproduce it bit for bit.

    Every round draws a fresh realisation of the same cells (simulation
    seed ``seed * 1000 + realisation``; the faulty workload's fault sites
    too).  Host time for a fixed packet count swings by 10-20 % with the
    realisation near saturation and under faults, so a unit's median is
    taken over realisations and host noise alike; work per round, in
    packets, is the same in every round.
    """

    #: (key, path) -> last SimulationResult, for the modelled metrics.
    results: dict = field(default_factory=dict)
    layout_build_s: float = 0.0
    #: Next realisation to draw, and how many were dropped as deadlocks.
    cursor: int = 0
    screened: int = 0

    fast_path = "soa"
    fine_trace = True
    #: Probes per reading before a cell.
    probes = 1

    def cells(self, realisation: int) -> list[Cell]:
        """The cells of one realisation."""
        raise NotImplementedError

    def config(self, realisation: int, packets: int, **fields) -> SimulationConfig:
        return SimulationConfig(
            warmup_packets=scaled(packets * 0.15, self.scale, 4),
            measure_packets=scaled(packets * 0.85, self.scale, 20),
            seed=self.seed * 1000 + realisation,
            **fields,
        )

    def grid(self, realisation: int, rate: float, second_traffic: str) -> list[Cell]:
        """The paper's 8x8 mesh: three routers x two routing/traffic pairs.

        Cells are short (400 packets, ~0.1 s) so a run repeats each one
        ten times or so: on a shared host the median of many short runs
        is steadier than that of a few long ones.
        """
        cells = [
            Cell(
                f"{router}/{routing}/{traffic}",
                "object",
                self.config(
                    realisation,
                    400,
                    router=router,
                    routing=routing,
                    traffic=traffic,
                    injection_rate=rate,
                ),
            )
            for router in ("roco", "generic", "path_sensitive")
            for routing, traffic in (("xy", "uniform"), ("adaptive", second_traffic))
        ]
        return cells + [
            Cell(cell.key, "soa", replace(cell.config, backend="soa"))
            for cell in cells
            if cell.config.router != "path_sensitive"
        ]

    def setup(self) -> None:
        # The SoA wiring tables are memoised per mesh shape for the life
        # of the process; users pay for them once, so set-up does too.
        cells = self.cells(0)
        for cell in cells:
            if cell.path == "soa":
                started = perf_counter()
                build_layout(cell.config)
                self.layout_build_s += perf_counter() - started
                # The layout's route and admission caches grow on first
                # use; a fifth-size run fills most of them.
                run_simulation(
                    replace(
                        cell.config,
                        warmup_packets=cell.config.warmup_packets // 5,
                        measure_packets=max(1, cell.config.measure_packets // 5),
                    )
                )
        if any(c.path == "shard" for c in cells):
            reason = pool_fallback_reason(WORKERS)
            if reason is not None:
                raise FallbackError(f"tiles cannot have processes: {reason}")

    def run_cell(self, cell: Cell, realisation: int) -> tuple[float, float, object]:
        """Start, wall seconds and result of one cell; commits nothing."""
        self.host.probe(self.probes)
        with self.op(f"{cell.unit}@{realisation}"):
            started = perf_counter()
            if cell.path == "shard_inline":
                result = run_sharded_simulation(
                    cell.config, shards=SHARDS, inline=True
                )
            else:
                result = run_simulation(
                    cell.config,
                    faults=list(cell.faults) or None,
                    schedule=cell.schedule,
                )
            return started, perf_counter() - started, result

    def commit(
        self, cell: Cell, realisation: int, started: float, wall: float, result
    ) -> Sample:
        self.attempted += 1
        self.ops.append((cell.path, wall, started))
        self.note(f"{cell.key}@{realisation}", result_record(result))
        if (cell.faults or cell.schedule) and not result.conserved:
            self.mismatches += 1
        self.results[(cell.key, cell.path)] = result
        return Sample(
            cell.unit,
            cell.path,
            result.generated_packets,
            wall,
            started,
            result.cycles,
        )

    def round(self, index: int) -> list[Sample]:
        """Run the next realisation the object engine does not deadlock on.

        About one fault-free 0.20 cell in 2,500 ends in the engine's
        no-progress ``DrainTimeoutError`` (ROADMAP item 5; it was known
        at 0.30).  Such a realisation is not a usable input: it is
        dropped whole, counted in ``perfbench.screened_inputs`` (exact
        for a seed) and the next one is drawn, so every round has every
        unit.  Only the object engine, the reference, may screen: a SoA
        or sharded cell that deadlocks where the object one finished is
        a failed operation.  At most ``MAX_SCREENED`` realisations are
        dropped per run, and realisation 0 of the default seed must run,
        because the pinned digests are its.
        """
        while True:
            realisation = self.cursor
            self.cursor += 1
            cells = self.cells(realisation)
            runs = []
            try:
                for cell in cells:
                    runs.append(self.run_cell(cell, realisation))
            except DeadlockError as error:
                cell = cells[len(runs)]
                print(
                    f"{self.name}: {cell.unit}@{realisation} deadlocked: {error}",
                    file=sys.stderr,
                )
                if cell.path == "object":
                    self.screened += 1
                else:
                    self.attempted += 1
                    self.failed += 1
                if self.screened + self.failed > MAX_SCREENED:
                    raise
                continue
            return [
                self.commit(cell, realisation, *run) for cell, run in zip(cells, runs)
            ]

    def pinned(self) -> dict[str, str]:
        return {k: v for k, v in self.digests.items() if k.endswith("@0")}

    def layer_counts(self) -> dict[str, float]:
        results = [r for (_, path), r in self.results.items() if path == "object"]
        steps = sum(r.scheduler.router_steps for r in results)
        slots = sum(r.scheduler.router_slots for r in results)
        counts = {
            "core.scheduler.router_steps": steps,
            "core.scheduler.duty_cycle": steps / slots if slots else 0.0,
            "core.scheduler.wakeups": sum(r.scheduler.wakeups for r in results),
            "core.scheduler.sleeps": sum(r.scheduler.sleeps for r in results),
            "routers.contention_overall": statistics.fmean(
                r.contention_overall for r in results
            ),
            "faults.dropped_packets": sum(r.total_dropped for r in results),
            "core.soa.layout_build_s": self.layout_build_s,
            "perfbench.screened_inputs": self.screened,
        }
        counts.update(self.modelled())
        return counts

    def pair(self, key_suffix: str):
        """RoCo's and generic's object results of one cell."""
        return (
            self.results[(f"roco/{key_suffix}", "object")],
            self.results[(f"generic/{key_suffix}", "object")],
        )

    def modelled(self) -> dict[str, float]:
        """Simulated statistics of the last round run: exact for a seed."""
        return {}


class Mesh8LowLoad(MeshWorkload):
    name = "mesh8_lowload"

    def cells(self, realisation: int) -> list[Cell]:
        return self.grid(realisation, 0.05, "self_similar")


class Mesh8HighLoad(MeshWorkload):
    name = "mesh8_highload"

    def cells(self, realisation: int) -> list[Cell]:
        # 0.20 keeps generic near saturation and stays under the known
        # RoCo/XY/uniform/0.30/seed-1 DrainTimeoutError.
        return self.grid(realisation, 0.20, "transpose")

    def modelled(self) -> dict[str, float]:
        roco, generic = self.pair("xy/uniform")
        return {
            "roco_latency_cut_pct": 100.0
            * (1.0 - roco.average_latency / generic.average_latency),
            "roco_energy_cut_pct": 100.0
            * (1.0 - roco.energy_per_packet_nj / generic.energy_per_packet_nj),
        }


class Mesh8Faulty(MeshWorkload):
    name = "mesh8_faulty"
    #: SoA and sharding refuse faults: the object engine is the only path.
    fast_path = "object"

    def cells(self, realisation: int) -> list[Cell]:
        nodes = [NodeId(x, y) for y in range(8) for x in range(8)]
        draw = self.seed * 1000 + realisation
        rng = random.Random(draw)
        critical = tuple(random_faults(nodes, 4, rng, critical=True))
        noncritical = tuple(random_faults(nodes, 4, rng, critical=False))
        campaign = FaultSchedule.sampled(
            nodes, count=4, seed=draw, mtbf=150, duration=300
        )
        populations = (
            ("xy", "critical4", critical, None),
            ("adaptive", "critical4", critical, None),
            ("xy", "noncritical4", noncritical, None),
            ("xy", "transient4", (), campaign),
        )
        return [
            Cell(
                f"{router}/{routing}/uniform/{label}",
                "object",
                self.config(
                    realisation,
                    300,
                    router=router,
                    routing=routing,
                    traffic="uniform",
                    injection_rate=0.20,
                ),
                faults,
                schedule,
            )
            for router in ("roco", "generic")
            for routing, label, faults, schedule in populations
        ]

    def modelled(self) -> dict[str, float]:
        roco, generic = self.pair("xy/uniform/critical4")
        return {
            "roco_completion_gain_pct": 100.0
            * (roco.completion_probability / generic.completion_probability - 1.0)
        }


class Mesh16ScaleOut(MeshWorkload):
    name = "mesh16_scaleout"
    key = "roco/xy/uniform"
    probes = 3  # cells of 0.2 to 1.2 s

    def base(self, realisation: int) -> SimulationConfig:
        return self.config(
            realisation,
            700,
            width=16,
            height=16,
            router="roco",
            routing="xy",
            traffic="uniform",
            injection_rate=0.10,
        )

    def cells(self, realisation: int) -> list[Cell]:
        config = self.base(realisation)
        return [
            Cell(self.key, "object", config),
            Cell(self.key, "soa", replace(config, backend="soa")),
            Cell(self.key, "shard", replace(config, shards=SHARDS)),
        ]

    def extras(self) -> list[Sample]:
        # The same tiles driven in-process: what the protocol costs
        # without process boot, pipes and waiting.
        realisation = self.cursor - 1  # the round's: its records compare
        cell = Cell(self.key, "shard_inline", self.base(realisation))
        return [self.commit(cell, realisation, *self.run_cell(cell, realisation))]


# ----------------------------------------------------------------------
# Sweep harness
# ----------------------------------------------------------------------


@dataclass
class SweepSmallJobs(Workload):
    """Many ~50 ms jobs, so the harness is most of the wall."""

    jobs: list[SimJob] = field(default_factory=list)
    hits: int = 0
    lookups: int = 0
    retries: int = 0
    worker_crashes: int = 0
    workerset_boot_s: float = 0.0

    name = "sweep_smalljobs"
    fast_path = "warm"
    rates = (0.05, 0.10, 0.15, 0.20)
    #: Warm replays per round, each by a new executor on the full cache.
    replays = 40

    def __post_init__(self) -> None:
        seeds = scaled(4, self.scale)
        self.replays = scaled(self.replays, self.scale, 2)
        for rate in self.rates:
            for k in range(seeds):
                self.jobs.append(
                    SimJob.of(
                        SimulationConfig(
                            width=4,
                            height=4,
                            router="roco",
                            routing="xy",
                            traffic="uniform",
                            injection_rate=rate,
                            warmup_packets=50,
                            measure_packets=200,
                            seed=self.seed * 1000 + k,
                        )
                    )
                )

    def setup(self) -> None:
        reason = pool_fallback_reason(WORKERS)
        if reason is not None:
            raise FallbackError(f"no worker pool: {reason}")

    def run_pass(self, unit: str, executor: ParallelExecutor) -> Sample:
        self.attempted += len(self.jobs)
        with self.op(unit):
            started = perf_counter()
            records = executor.run_jobs(self.jobs)
            wall = perf_counter() - started
        self.ops.append((unit, wall, started))
        stats = executor.last_stats
        self.retries += stats.retries
        self.worker_crashes += stats.worker_crashes
        if stats.retries or stats.worker_crashes:
            raise FallbackError(
                f"{unit} pass needed {stats.retries} retries and lost "
                f"{stats.worker_crashes} workers"
            )
        for index, record in enumerate(records):
            if is_failure_record(record):
                self.failed += 1
            else:
                self.note(f"job{index:03d}", record)
        self.hits += stats.cache_hits
        self.lookups += stats.total
        return Sample(unit, unit, len(self.jobs), wall, started)

    def cold(self, kind: str, index: int, workers: int = WORKERS) -> Sample:
        """One pass over an empty cache: classic, resilient or inline."""
        self.host.probe(3)
        directory = self.workdir / f"{kind}-{index}"
        shutil.rmtree(directory, ignore_errors=True)
        cache = ResultCache(directory)
        if kind != "resilient":
            return self.run_pass(kind, ParallelExecutor(workers=workers, cache=cache))
        journal = SweepJournal(directory / "journal.jsonl")
        try:
            executor = ParallelExecutor(
                workers=workers, cache=cache, policy=RetryPolicy(), journal=journal
            )
            return self.run_pass(kind, executor)
        finally:
            journal.close()

    def round(self, index: int) -> list[Sample]:
        order = ("classic", "resilient") if index % 2 == 0 else ("resilient", "classic")
        samples = [self.cold(kind, index) for kind in order]
        full = ResultCache(self.workdir / f"classic-{index}")
        for replay in range(self.replays):
            if replay % 5 == 0:
                # A replay is shorter than a probe: one for every five.
                self.host.probe()
            executor = ParallelExecutor(workers=WORKERS, cache=full)
            samples.append(self.run_pass("warm", executor))
            if executor.last_stats.cache_hits != len(self.jobs):
                self.mismatches += 1
        return samples

    def extras(self) -> list[Sample]:
        started = perf_counter()
        with ManagedWorkerSet(RetryPolicy(), workers=WORKERS) as workers:
            while not all(
                w["alive"] and w["ready"] for w in workers.worker_liveness()
            ):
                workers.pump()
            self.workerset_boot_s = perf_counter() - started
        return [self.cold("inline", 0, workers=1)]

    def verify(self) -> None:
        for index in range(0, len(self.jobs), 4):
            self.note(f"job{index:03d}", execute_job(self.jobs[index]))

    def pinned(self) -> dict[str, str]:
        sampled = {f"job{i:03d}" for i in range(0, len(self.jobs), 4)}
        return {k: v for k, v in self.digests.items() if k in sampled}

    def layer_counts(self) -> dict[str, float]:
        return {
            "harness.parallel.cache.hit_ratio": (
                self.hits / self.lookups if self.lookups else 0.0
            ),
            "harness.resilient.workerset_boot_s": self.workerset_boot_s,
            "harness.resilient.retries": self.retries,
            "harness.resilient.worker_crashes": self.worker_crashes,
        }


# ----------------------------------------------------------------------
# Job server
# ----------------------------------------------------------------------


@dataclass
class ServeMix(Workload):
    """A real broker behind a real HTTP server, two closed-loop clients."""

    broker: JobBroker | None = None
    server: ServerThread | None = None
    clients: list[ServeClient] = field(default_factory=list)
    boots: int = 0
    workerset_boot_s: float = 0.0
    restart_s: float = 0.0
    #: label -> request payload, for every key ever requested.
    requests: dict[str, dict] = field(default_factory=dict)
    coalesced: int = 0
    simulations_run: int = 0
    shed: int = 0
    retries: int = 0
    worker_crashes: int = 0
    queue_wait: float = 0.0
    #: job keys of the cold requests, for the ``/events`` queue-wait read.
    cold_keys: list[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    name = "serve_mix"
    fast_path = "serve_warm"

    def __post_init__(self) -> None:
        self.cold_per_client = scaled(4, self.scale)
        self.barrier_rounds = scaled(2, self.scale)
        self.warm_passes = scaled(10, self.scale)

    # -- server lifecycle ------------------------------------------------

    def setup(self) -> None:
        self.boot()

    def boot(self) -> None:
        started = perf_counter()
        self.broker = JobBroker(
            cache=ResultCache(self.workdir / "cache"),
            workers=WORKERS,
            policy=RetryPolicy(),
            max_inflight=64,
        )
        if self.broker.mode != "pooled":
            raise FallbackError("broker would run jobs inline")
        self.broker.start()
        self.server = ServerThread(self.broker).start()
        self.clients = [ServeClient(self.server.url) for _ in range(CLIENTS)]
        while True:
            liveness = self.broker.status()["worker_liveness"]
            if len(liveness) == WORKERS and all(
                w["alive"] and w["ready"] for w in liveness
            ):
                break
            time.sleep(0.005)
        self.workerset_boot_s = perf_counter() - started
        # One throw-away job per worker: two distinct jobs sent together
        # land on the two idle workers.
        self.boots += 1
        labels = [
            self.new_request(f"boot{self.boots}-{c}", size=4, packets=20)
            for c in range(CLIENTS)
        ]
        self.both(lambda c: self.ask(c, labels[c], "boot"))

    def shutdown(self) -> None:
        if self.broker is not None:
            status = self.broker.status()
            self.coalesced += status["coalesced"]
            self.simulations_run += status["simulations_run"]
            self.shed += status["shed"]
            execution = status["execution"]
            self.retries += execution["retries"]
            self.worker_crashes += execution["worker_crashes"]
            if execution["retries"] or execution["worker_crashes"]:
                raise FallbackError(f"server needed recovery: {execution}")
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.broker is not None:
            self.broker.close()
            self.broker = None

    def teardown(self) -> None:
        self.shutdown()
        super().teardown()

    # -- requests ----------------------------------------------------------

    def new_request(self, label: str, size: int = 8, packets: int = 500) -> str:
        """Register the experiment request of ``label``: a distinct job.

        Labels take consecutive seeds of the pool in the order they are
        registered (on the main thread), starting where ``--seed`` says.
        """
        first = random.Random(self.seed).randrange(SEED_POOL)
        sim_seed = 1 + (first + len(self.requests)) % SEED_POOL
        self.requests[label] = {
            "kind": "experiment",
            "config": {
                "size": size,
                "router": "roco",
                "routing": "xy",
                "traffic": "uniform",
                "rate": 0.10,
                "warmup_packets": packets // 5,
                "measure_packets": packets - packets // 5,
                "seed": sim_seed,
            },
        }
        return label

    def ask(self, client: int, label: str, kind: str) -> dict | None:
        """One closed-loop operation: submit, then wait for the record."""
        payload = self.requests[label]
        with self.lock:
            if kind != "boot":
                self.attempted += 1
        with nullcontext() if kind == "boot" else self.op(label):
            started = perf_counter()
            try:
                reply = self.clients[client].submit(payload)
                key = reply["jobs"][0]["key"]
                record = self.clients[client].result(key, timeout=120.0)
            except (ServeClientError, TimeoutError, OSError):
                with self.lock:
                    self.failed += 1
                return None
            wall = perf_counter() - started
        with self.lock:
            if kind != "boot":
                self.ops.append((kind, wall, started))
            if kind == "cold":
                self.cold_keys.append(key)
            if is_failure_record(record):
                self.failed += 1
            else:
                self.note(label, record)
        return reply["jobs"][0]

    def both(self, body) -> float:
        """Run ``body(client)`` on both client threads; the phase wall."""
        errors: list[BaseException] = []

        def guarded(client: int) -> None:
            try:
                body(client)
            except BaseException as exc:  # re-raised on the caller below
                errors.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(c,)) for c in range(CLIENTS)
        ]
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return perf_counter() - started

    def phase(self, unit: str, work: int, body) -> Sample:
        """One timed unit: ``body`` on both clients, probes before it."""
        self.host.probe(3)
        started = perf_counter()
        return Sample(unit, f"serve_{unit}", work, self.both(body), started)

    def round(self, index: int) -> list[Sample]:
        cold = [
            [
                self.new_request(f"r{index}-cold-c{c}-{i}")
                for i in range(self.cold_per_client)
            ]
            for c in range(CLIENTS)
        ]
        shared = [
            self.new_request(f"r{index}-shared-{i}")
            for i in range(self.barrier_rounds)
        ]
        before = self.broker.status()["simulations_run"]

        def cold_phase(client: int) -> None:
            for label in cold[client]:
                self.ask(client, label, "cold")

        barrier = threading.Barrier(CLIENTS)

        def coalesce_phase(client: int) -> None:
            for label in shared:
                barrier.wait()
                self.ask(client, label, "coalesced")

        keys = cold[0] + cold[1] + shared

        def warm_phase(client: int) -> None:
            for _ in range(self.warm_passes):
                for label in keys:
                    job = self.ask(client, label, "warm")
                    if job is not None and not job["cached"]:
                        with self.lock:
                            self.mismatches += 1

        samples = [
            self.phase("cold", len(cold[0]) * CLIENTS, cold_phase),
            self.phase("coalesced", len(shared) * CLIENTS, coalesce_phase),
        ]
        ran = self.broker.status()["simulations_run"] - before
        if ran != len(cold[0]) * CLIENTS + len(shared):
            # A shared key simulated twice means coalescing failed.
            self.mismatches += 1
        samples.append(
            self.phase("warm", len(keys) * self.warm_passes * CLIENTS, warm_phase)
        )
        return samples

    def finale(self) -> list[Sample]:
        """Restart on the same cache directory; every key once, from disk."""
        labels = [k for k in self.requests if not k.startswith("boot")]
        # The restarted broker will have forgotten these jobs' events.
        self.queue_wait = self.queue_wait_ms()
        started = perf_counter()
        self.shutdown()
        self.boot()
        self.restart_s = perf_counter() - started
        before = self.broker.status()["simulations_run"]

        def diskwarm_phase(client: int) -> None:
            for label in labels[client::CLIENTS]:
                self.ask(client, label, "diskwarm")

        sample = self.phase("diskwarm", len(labels), diskwarm_phase)
        if self.broker.status()["simulations_run"] != before:
            self.mismatches += 1
        return [sample]

    def queue_wait_ms(self) -> float:
        """Mean ``queued`` -> ``running`` gap of the cold jobs, from /events."""
        waits = []
        # Round 0's keys are enough, and all the traced pass has.
        for key in self.cold_keys[: CLIENTS * self.cold_per_client]:
            elapsed = {
                event["event"]: event["elapsed"]
                for event in self.clients[0].events(key)
            }
            if "queued" in elapsed and "running" in elapsed:
                waits.append(1000.0 * (elapsed["running"] - elapsed["queued"]))
        return statistics.fmean(waits) if waits else 0.0

    def verify(self) -> None:
        labels = sorted(k for k in self.requests if not k.startswith("boot"))
        for label in labels[::8]:
            job = normalize_request(self.requests[label]).jobs[0]
            self.note(label, execute_job(job))

    def pinned(self) -> dict[str, str]:
        return {k: v for k, v in self.digests.items() if k.startswith("r0-")}

    def latencies(self, kind: str) -> list[float]:
        """Client-observed latencies of one request class, in reference ms."""
        return [
            1000.0 * wall / self.host.slowness(started, started + wall)
            for k, wall, started in self.ops
            if k == kind
        ]

    def layer_counts(self) -> dict[str, float]:
        # Read after teardown: shutdown() has folded every broker's
        # counters into this object.
        cold = self.latencies("cold")
        return {
            "serve.broker.coalesced": self.coalesced,
            "serve.broker.simulations_run": self.simulations_run,
            "serve.broker.shed": self.shed,
            "harness.resilient.workerset_boot_s": self.workerset_boot_s,
            "harness.resilient.retries": self.retries,
            "harness.resilient.worker_crashes": self.worker_crashes,
            "serve.queue_wait_ms": self.queue_wait,
            "serve.restart_s": self.restart_s,
            # One round has 8 cold and 200 warm samples: no percentile of
            # 8 has ten samples beyond it, p95 is the highest of 200 that has.
            "serve.cold_max_ms": max(cold, default=0.0),
            "serve.warm_p95_ms": percentile(self.latencies("warm"), 0.95),
            "serve.coalesced_p50_ms": percentile(self.latencies("coalesced"), 0.50),
            "serve.diskwarm_p50_ms": percentile(self.latencies("diskwarm"), 0.50),
            "serve_cold_p50_ms": percentile(cold, 0.50),
            "serve_warm_p50_ms": percentile(self.latencies("warm"), 0.50),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (
        Mesh8LowLoad,
        Mesh8HighLoad,
        Mesh8Faulty,
        Mesh16ScaleOut,
        SweepSmallJobs,
        ServeMix,
    )
}
