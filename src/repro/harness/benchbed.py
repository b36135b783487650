"""Benchbed: benchmark registry, runner and artifact writer.

Every ``benchmarks/bench_*.py`` script registers one entry point with
the global :data:`REGISTRY` via the :func:`benchmark` decorator.  A
registered benchmark is a function of one :class:`BenchContext` that
computes one table or figure of the paper, asserts its *shape targets*
(who wins, by roughly what factor), prints the paper-style rows and
returns a scalar *headline metric* (saturation rate, completion ratio,
PEF improvement, energy per flit, ...) plus free-form details.  The bed
then provides, uniformly for all of them:

* **fidelity tiers** — ``quick`` (the tier-1 pin: shrunk packet counts
  and rate grids, single seed) and ``full`` (the benchmarks' own
  ``BENCH`` scale);
* **a runner** that calls the benchmark once and records its headline,
  config stamp, simulated cycles and scheduler counters;
* **canonical artifacts** — one schema-versioned, seed- and
  config-stamped ``BENCH_<name>.json`` per benchmark holding nothing
  machine- or time-dependent, so a re-run rewrites it byte for byte.

Determinism contract: everything in an artifact is a pure function of
the benchmark's seeded configuration — never of wall time — so the same
tier and seed produce identical artifacts on any machine.  That makes
the gate an equality: ``tests/test_fidelity.py`` holds the quick tier
of every registered benchmark to ``benchmarks/baseline/`` exactly, and
the comparator for a deliberate change is ``python -m repro bench
--quick --out benchmarks/baseline && git diff``.  Timing is
``perfbench/``'s job, not the bed's.
"""

from __future__ import annotations

import argparse
import fnmatch
import importlib.util
import json
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.core.config import SimulationConfig
from repro.core.simulator import SimulationResult, run_simulation
from repro.harness.experiment import ExperimentScale
from repro.harness.parallel import ParallelExecutor
from repro.harness.report import render_table

#: Bump on any backwards-incompatible artifact change.
SCHEMA_VERSION = 3

#: Artifact file name prefix: ``BENCH_<benchmark name>.json``.
ARTIFACT_PREFIX = "BENCH_"

#: Known fidelity tiers.
TIERS = ("quick", "full")

#: Packet counts the quick tier clamps an experiment scale down to.
QUICK_WARMUP_PACKETS = 60
QUICK_MEASURE_PACKETS = 250


class BenchbedError(Exception):
    """Usage or configuration error in the benchbed itself."""


@dataclass
class Outcome:
    """What one benchmark invocation reports back to the runner.

    ``headline`` is the scalar the benchmark is about.  ``details`` is
    free-form JSON-serialisable context recorded in the artifact.
    """

    headline: float
    details: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def of(cls, value: "Outcome | float | int") -> "Outcome":
        if isinstance(value, Outcome):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return cls(headline=float(value))
        raise BenchbedError(
            f"benchmark returned {type(value).__name__}; expected an "
            "Outcome or a bare number"
        )


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: its callable plus headline metadata."""

    name: str
    func: Callable[["BenchContext"], "Outcome | float"]
    headline: str
    unit: str = ""
    module: str = ""


class BenchmarkRegistry:
    """Ordered name -> :class:`BenchSpec` mapping."""

    def __init__(self) -> None:
        self._specs: dict[str, BenchSpec] = {}

    def register(self, spec: BenchSpec) -> None:
        existing = self._specs.get(spec.name)
        if existing is not None and existing.module != spec.module:
            raise BenchbedError(
                f"benchmark name {spec.name!r} registered by both "
                f"{existing.module} and {spec.module}"
            )
        self._specs[spec.name] = spec

    def get(self, name: str) -> BenchSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise BenchbedError(f"unknown benchmark {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._specs)

    def select(self, pattern: str | None = None) -> list[BenchSpec]:
        """Specs whose names match the glob, in name order."""
        names = self.names()
        if pattern is not None:
            names = [n for n in names if fnmatch.fnmatchcase(n, pattern)]
        return [self._specs[n] for n in names]

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[BenchSpec]:
        return iter(self.select())

    def __contains__(self, name: str) -> bool:
        return name in self._specs


#: The global registry ``benchmarks/bench_*.py`` scripts register into.
REGISTRY = BenchmarkRegistry()


def benchmark(
    name: str,
    *,
    headline: str,
    unit: str = "",
    registry: BenchmarkRegistry | None = None,
) -> Callable[[Callable], Callable]:
    """Decorator registering a benchmark entry point.

    The decorated function receives a :class:`BenchContext` and returns
    an :class:`Outcome` (or a bare number used as the headline).
    """

    def wrap(func: Callable) -> Callable:
        spec = BenchSpec(
            name=name,
            func=func,
            headline=headline,
            unit=unit,
            module=func.__module__,
        )
        (registry if registry is not None else REGISTRY).register(spec)
        return func

    return wrap


# ---------------------------------------------------------------------------
# Tiers and execution context


def quick_scale(scale: ExperimentScale) -> ExperimentScale:
    """Shrink an experiment scale to the quick tier.

    Mesh dimensions are preserved (benchmarks hard-code node positions
    and headline semantics on the paper's 8x8), but packet counts are
    clamped, rate grids trimmed to their endpoints and the seed list cut
    to its first entry.
    """
    def trim(grid: tuple[float, ...]) -> tuple[float, ...]:
        return grid if len(grid) <= 2 else (grid[0], grid[-1])

    return replace(
        scale,
        name=f"{scale.name}-quick",
        warmup_packets=min(scale.warmup_packets, QUICK_WARMUP_PACKETS),
        measure_packets=min(scale.measure_packets, QUICK_MEASURE_PACKETS),
        seeds=scale.seeds[:1],
        rates=trim(scale.rates),
        contention_rates=trim(scale.contention_rates),
    )


class BenchContext:
    """Everything a registered benchmark needs to run at one tier.

    The context owns a :class:`ParallelExecutor` whose progress hook
    accumulates simulated cycles and seen seeds/configs from every
    record, and a :meth:`run` wrapper around
    :func:`~repro.core.simulator.run_simulation` that additionally
    absorbs scheduler counters.  Benchmarks route all simulation through
    one of the two so the artifact's cycle count and config stamp come
    for free.
    """

    def __init__(self, tier: str = "full", workers: int | None = None) -> None:
        if tier not in TIERS:
            raise BenchbedError(f"unknown tier {tier!r}; expected one of {TIERS}")
        self.tier = tier
        self.cycles = 0
        self.simulations = 0
        self._scheduler: dict[str, int] | None = None
        self._seeds: set[int] = set()
        self._routers: set[str] = set()
        self._traffics: set[str] = set()
        self._meshes: set[str] = set()
        self._rates: set[float] = set()
        self._extra: dict[str, Any] = {}
        self.executor = ParallelExecutor(
            workers=workers, progress=self._absorb_record
        )

    # -- tier plumbing --------------------------------------------------

    @property
    def quick(self) -> bool:
        return self.tier == "quick"

    def pick(self, *, quick: Any, full: Any) -> Any:
        """Tier-dependent constant (rate grids, repeat counts, ...)."""
        return quick if self.quick else full

    def scale(self, full: ExperimentScale) -> ExperimentScale:
        """The scale to run: ``full`` itself, or its quick shrink."""
        return quick_scale(full) if self.quick else full

    # -- accounting -----------------------------------------------------

    def stamp(self, **extra: Any) -> None:
        """Record extra config-stamp entries (analytic parameters...)."""
        self._extra.update(extra)

    def run(self, config: SimulationConfig, **kwargs: Any) -> SimulationResult:
        """Run one simulation in-process and absorb its accounting."""
        result = run_simulation(config, **kwargs)
        self.absorb(result)
        return result

    def absorb(self, result: SimulationResult) -> SimulationResult:
        """Fold a result produced elsewhere (e.g. a campaign) in."""
        config = result.config
        self.cycles += result.cycles
        self.simulations += 1
        self._seeds.add(config.seed)
        self._routers.add(config.router)
        self._traffics.add(config.traffic)
        self._meshes.add(f"{config.width}x{config.height}")
        self._rates.add(config.injection_rate)
        counters = result.scheduler
        if self._scheduler is None:
            self._scheduler = {
                "router_steps": 0,
                "router_slots": 0,
                "wakeups": 0,
                "sleeps": 0,
            }
        self._scheduler["router_steps"] += counters.router_steps
        self._scheduler["router_slots"] += counters.router_slots
        self._scheduler["wakeups"] += counters.wakeups
        self._scheduler["sleeps"] += counters.sleeps
        return result

    def _absorb_record(self, done: int, total: int, record: dict) -> None:
        self.cycles += record["cycles"]
        self.simulations += 1
        self._seeds.add(record["seed"])
        self._routers.add(record["router"])
        self._traffics.add(record["traffic"])
        self._meshes.add(f"{record['width']}x{record['height']}")
        self._rates.add(record["injection_rate"])

    @property
    def scheduler_counters(self) -> dict[str, Any] | None:
        """Aggregated scheduler telemetry from :meth:`run`/:meth:`absorb`."""
        if self._scheduler is None:
            return None
        counters = dict(self._scheduler)
        slots = counters["router_slots"]
        counters["duty_cycle"] = (
            counters["router_steps"] / slots if slots else 0.0
        )
        return counters

    def config_stamp(self) -> dict[str, Any]:
        """Canonical description of everything this context simulated."""
        stamp: dict[str, Any] = {
            "simulations": self.simulations,
            "seeds": sorted(self._seeds),
            "routers": sorted(self._routers),
            "traffics": sorted(self._traffics),
            "meshes": sorted(self._meshes),
            "injection_rates": sorted(self._rates),
        }
        stamp.update(self._extra)
        return stamp


# ---------------------------------------------------------------------------
# Discovery


def default_bench_dir() -> Path:
    """Locate ``benchmarks/`` (repo checkout, then cwd)."""
    checkout = Path(__file__).resolve().parents[3] / "benchmarks"
    if checkout.is_dir():
        return checkout
    return Path.cwd() / "benchmarks"


def discover(directory: str | Path | None = None) -> BenchmarkRegistry:
    """Import every ``bench_*.py`` so its registrations land in REGISTRY.

    The directory's ``conftest.py`` (shared scales and helpers) is
    pre-seeded into ``sys.modules`` under the name the scripts import
    (``conftest``).  Imports are idempotent: already-imported modules
    are not re-executed.
    """
    bench_dir = Path(directory) if directory is not None else default_bench_dir()
    if not bench_dir.is_dir():
        raise BenchbedError(f"benchmark directory not found: {bench_dir}")
    conftest = bench_dir / "conftest.py"
    if conftest.is_file() and "conftest" not in sys.modules:
        _import_file("conftest", conftest)
    for path in sorted(bench_dir.glob("bench_*.py")):
        _import_file(f"repro_bench_{path.stem}", path)
    return REGISTRY


def _import_file(module_name: str, path: Path) -> None:
    if module_name in sys.modules:
        return
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        raise BenchbedError(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(module_name, None)
        raise


# ---------------------------------------------------------------------------
# Runner and artifacts


def run_benchmark(spec: BenchSpec, context: BenchContext) -> dict[str, Any]:
    """Run one benchmark once and return its artifact payload.

    A shape target the benchmark asserts on propagates as the
    :class:`AssertionError` it raised; no artifact exists for a
    benchmark whose figure has the wrong shape.
    """
    outcome = Outcome.of(spec.func(context))
    stamp = context.config_stamp()
    seeds = stamp["seeds"]
    return {
        "schema_version": SCHEMA_VERSION,
        "name": spec.name,
        "tier": context.tier,
        "headline": {
            "metric": spec.headline,
            "unit": spec.unit,
            "value": outcome.headline,
        },
        "seed": seeds[0] if len(seeds) == 1 else None,
        "config": stamp,
        "cycles": context.cycles,
        "details": outcome.details,
        "scheduler": context.scheduler_counters,
    }


def artifact_path(out_dir: str | Path, name: str) -> Path:
    return Path(out_dir) / f"{ARTIFACT_PREFIX}{name}.json"


def write_artifact(artifact: dict[str, Any], out_dir: str | Path) -> Path:
    """Write one ``BENCH_<name>.json``; return its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = artifact_path(out, artifact["name"])
    path.write_text(json.dumps(artifact, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# CLI


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Run the registered benchmark suite: assert each figure's shape "
            "targets, print its table and emit BENCH_<name>.json artifacts "
            "(see docs/benchmarking.md)."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the quick fidelity tier (the tier-1 pin's) instead of full",
    )
    parser.add_argument(
        "--filter",
        default=None,
        metavar="GLOB",
        help="only run benchmarks whose name matches this glob",
    )
    parser.add_argument(
        "--out",
        default="bench-results",
        metavar="DIR",
        help="directory for BENCH_<name>.json artifacts",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for simulation grids (0 = all cores)",
    )
    parser.add_argument(
        "--bench-dir",
        default=None,
        metavar="DIR",
        help="directory holding bench_*.py scripts (default: repo benchmarks/)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered benchmarks and exit",
    )
    return parser


def bench_main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro bench ...``."""
    args = _run_parser().parse_args(argv)

    try:
        registry = discover(args.bench_dir)
    except BenchbedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    specs = registry.select(args.filter)
    if not specs:
        print(f"error: no benchmarks match {args.filter!r}", file=sys.stderr)
        return 2

    tier = "quick" if args.quick else "full"
    if args.list:
        rows = [[spec.name, spec.headline, spec.unit or "-"] for spec in specs]
        print(
            render_table(
                ["benchmark", "headline metric", "unit"],
                rows,
                title=f"== registered benchmarks ({len(specs)}) ==",
            )
        )
        return 0

    out_dir = Path(args.out)
    broken: list[str] = []
    for index, spec in enumerate(specs, start=1):
        label = f"[bench {index}/{len(specs)}] {spec.name}"
        try:
            artifact = run_benchmark(
                spec, BenchContext(tier, workers=args.workers)
            )
        except AssertionError:
            broken.append(spec.name)
            print(f"{label}: shape target FAILED", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        path = write_artifact(artifact, out_dir)
        headline = artifact["headline"]
        print(
            f"{label}: {headline['metric']} = {headline['value']:.4g}"
            f"{' ' + headline['unit'] if headline['unit'] else ''} -> {path}",
            file=sys.stderr,
        )
    print(
        f"[bench] {len(specs) - len(broken)} of {len(specs)} benchmark(s) passed "
        f"their shape targets, tier {tier}, artifacts in {out_dir}",
        file=sys.stderr,
    )
    if broken:
        print(f"error: shape targets failed in: {', '.join(broken)}", file=sys.stderr)
        return 1
    return 0
