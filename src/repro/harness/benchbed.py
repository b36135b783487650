"""Benchbed: benchmark registry, runner and fidelity gate.

Every ``benchmarks/bench_*.py`` script registers one entry point with
the global :data:`REGISTRY` via the :func:`benchmark` decorator.  A
registered benchmark is a function of one :class:`BenchContext` that
computes one table or figure of the paper, asserts its *shape targets*
(who wins, by roughly what factor), prints the paper-style rows and
returns a scalar *headline metric* (saturation rate, completion ratio,
PEF improvement, energy per flit, ...) plus free-form details.  The bed
then provides, uniformly for all of them:

* **fidelity tiers** — ``quick`` (CI smoke: shrunk packet counts and
  rate grids, single seed) and ``full`` (the benchmarks' own ``BENCH``
  scale);
* **a runner** that calls the benchmark once and records its headline,
  config stamp, simulated cycles and scheduler counters;
* **canonical artifacts** — one schema-versioned, seed- and
  config-stamped ``BENCH_<name>.json`` per benchmark holding nothing
  machine- or time-dependent, so a re-run rewrites it byte for byte;
* **a baseline-comparison engine** (``python -m repro bench compare
  old new``) that exits non-zero on headline drift beyond a threshold
  (default 2%), a violated floor/ceiling, a tier mismatch or a missing
  benchmark.

Determinism contract: everything in an artifact is a pure function of
the benchmark's seeded configuration — never of wall time — so the same
tier and seed produce identical artifacts on any machine.  Timing is
``perfbench/``'s job, not the bed's.
"""

from __future__ import annotations

import argparse
import fnmatch
import importlib.util
import json
import os
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.core.config import SimulationConfig
from repro.core.simulator import SimulationResult, run_simulation
from repro.harness.experiment import ExperimentScale
from repro.harness.parallel import ParallelExecutor
from repro.harness.report import render_table

#: Bump on any backwards-incompatible artifact change; compare refuses
#: to diff artifacts written under a different schema version.
SCHEMA_VERSION = 2

#: Artifact file name prefix: ``BENCH_<benchmark name>.json``.
ARTIFACT_PREFIX = "BENCH_"

#: Known fidelity tiers.
TIERS = ("quick", "full")

#: Default headline-drift threshold (fraction).
DEFAULT_HEADLINE_THRESHOLD = 0.02

#: Packet counts the quick tier clamps an experiment scale down to.
QUICK_WARMUP_PACKETS = 60
QUICK_MEASURE_PACKETS = 250


class BenchbedError(Exception):
    """Usage or configuration error in the benchbed itself."""


class BenchThresholdError(AssertionError):
    """A headline metric violated an absolute threshold.

    Subclasses :class:`AssertionError` so pytest renders it as a plain
    test failure — but the message carries the metric, the bound, the
    shortfall and the caller's context table instead of a bare
    ``assert``'s source line.
    """


@dataclass(frozen=True)
class Threshold:
    """An absolute floor/ceiling on a headline metric.

    :meth:`check` raises :class:`BenchThresholdError` with a rendered,
    contextual message — use it instead of a bare ``assert`` so a noisy
    runner produces a diagnosable comparison failure.
    """

    metric: str
    floor: float | None = None
    ceiling: float | None = None

    def check(self, value: float, context: str = "") -> float:
        """Validate ``value``; return it unchanged when within bounds."""
        problem = None
        if self.floor is not None and value < self.floor:
            shortfall = (self.floor - value) / abs(self.floor)
            problem = (
                f"{self.metric} = {value:.4g} fell below its floor "
                f"{self.floor:.4g} ({shortfall:.1%} short)"
            )
        if self.ceiling is not None and value > self.ceiling:
            excess = (value - self.ceiling) / abs(self.ceiling)
            problem = (
                f"{self.metric} = {value:.4g} exceeded its ceiling "
                f"{self.ceiling:.4g} ({excess:.1%} over)"
            )
        if problem is not None:
            message = f"benchbed threshold violated: {problem}"
            if context:
                message = f"{message}\n{context}"
            raise BenchThresholdError(message)
        return value


@dataclass
class Outcome:
    """What one benchmark invocation reports back to the runner.

    ``headline`` is the scalar the regression gate tracks.  ``details``
    is free-form JSON-serialisable context recorded in the artifact.
    ``floor``/``ceiling`` override the registered absolute bounds when
    the tier changes what is achievable (e.g. a speedup floor that only
    holds at the full scale).
    """

    headline: float
    details: dict[str, Any] = field(default_factory=dict)
    floor: float | None = None
    ceiling: float | None = None

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
    #: ``"higher"`` or ``"lower"`` — which direction of the headline
    #: metric is *better*; the compare engine gates drift the other way.
    direction: str = "higher"
    floor: float | None = None
    ceiling: float | None = None
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
    direction: str = "higher",
    floor: float | None = None,
    ceiling: float | None = None,
    registry: BenchmarkRegistry | None = None,
) -> Callable[[Callable], Callable]:
    """Decorator registering a benchmark entry point.

    The decorated function receives a :class:`BenchContext` and returns
    an :class:`Outcome` (or a bare number used as the headline).
    """
    if direction not in ("higher", "lower"):
        raise BenchbedError(
            f"direction must be 'higher' or 'lower', not {direction!r}"
        )

    def wrap(func: Callable) -> Callable:
        spec = BenchSpec(
            name=name,
            func=func,
            headline=headline,
            unit=unit,
            direction=direction,
            floor=floor,
            ceiling=ceiling,
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
    """Locate ``benchmarks/`` (env override, repo checkout, then cwd)."""
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return Path(override)
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
    :class:`AssertionError` it raised, as does a headline outside its
    registered floor/ceiling; no artifact exists for a benchmark whose
    figure has the wrong shape.
    """
    outcome = Outcome.of(spec.func(context))
    floor = outcome.floor if outcome.floor is not None else spec.floor
    ceiling = outcome.ceiling if outcome.ceiling is not None else spec.ceiling
    Threshold(spec.headline, floor, ceiling).check(outcome.headline)
    stamp = context.config_stamp()
    seeds = stamp["seeds"]
    return {
        "schema_version": SCHEMA_VERSION,
        "name": spec.name,
        "tier": context.tier,
        "headline": {
            "metric": spec.headline,
            "unit": spec.unit,
            "direction": spec.direction,
            "value": outcome.headline,
            "floor": floor,
            "ceiling": ceiling,
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
    """Write one ``BENCH_<name>.json`` (validated first); return path."""
    validate_artifact(artifact)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = artifact_path(out, artifact["name"])
    path.write_text(json.dumps(artifact, indent=2) + "\n")
    return path


#: ``key -> required type`` for the artifact's top level.
_ARTIFACT_KEYS: dict[str, type | tuple[type, ...]] = {
    "schema_version": int,
    "name": str,
    "tier": str,
    "headline": dict,
    "config": dict,
    "details": dict,
    "cycles": int,
}


def validate_artifact(payload: Any) -> dict[str, Any]:
    """Check an artifact against the schema; raise ``ValueError`` if bad."""
    if not isinstance(payload, dict):
        raise ValueError("artifact must be a JSON object")
    for key, expected in _ARTIFACT_KEYS.items():
        if key not in payload:
            raise ValueError(f"artifact missing key {key!r}")
        if not isinstance(payload[key], expected):
            raise ValueError(f"artifact key {key!r} has wrong type")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"artifact schema version {payload['schema_version']} != "
            f"supported {SCHEMA_VERSION}"
        )
    if payload["tier"] not in TIERS:
        raise ValueError(f"unknown tier {payload['tier']!r}")
    headline = payload["headline"]
    for key in ("metric", "direction", "value"):
        if key not in headline:
            raise ValueError(f"artifact headline missing {key!r}")
    if headline["direction"] not in ("higher", "lower"):
        raise ValueError(f"bad headline direction {headline['direction']!r}")
    if not isinstance(headline["value"], (int, float)):
        raise ValueError("headline value must be a number")
    return payload


def comparison_payload(artifact: dict[str, Any]) -> dict[str, Any]:
    """The subset of an artifact the gate and the fidelity pin compare.

    A deterministic function of (tier, seed, code): two runs of the
    same benchmark at the same tier must produce equal payloads.
    ``details`` and ``scheduler`` stay out — they are context for a
    reader (full curves, per-tile counters), and ``scheduler`` counts
    only the simulations that ran in this process.
    """
    return {
        "schema_version": artifact["schema_version"],
        "name": artifact["name"],
        "tier": artifact["tier"],
        "headline": artifact["headline"],
        "seed": artifact.get("seed"),
        "config": artifact["config"],
        "cycles": artifact["cycles"],
    }


def load_artifacts(path: str | Path) -> dict[str, dict[str, Any]]:
    """Load artifacts from a ``BENCH_*.json`` file or a directory."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob(f"{ARTIFACT_PREFIX}*.json"))
        if not files:
            raise BenchbedError(f"no {ARTIFACT_PREFIX}*.json artifacts in {path}")
    elif path.is_file():
        files = [path]
    else:
        raise BenchbedError(f"no such artifact file or directory: {path}")
    artifacts: dict[str, dict[str, Any]] = {}
    for file in files:
        try:
            payload = validate_artifact(json.loads(file.read_text()))
        except ValueError as exc:
            raise BenchbedError(f"{file}: {exc}") from exc
        artifacts[payload["name"]] = payload
    return artifacts


# ---------------------------------------------------------------------------
# Baseline comparison


@dataclass
class BenchDelta:
    """Per-benchmark comparison outcome."""

    name: str
    #: ``ok`` | ``improved`` | ``regression`` | ``missing`` |
    #: ``incomparable`` | ``new``
    status: str
    notes: list[str] = field(default_factory=list)
    headline_delta: float | None = None

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "missing", "incomparable")


@dataclass
class CompareReport:
    """All deltas of one old-vs-new comparison."""

    deltas: list[BenchDelta]
    headline_threshold: float

    @property
    def failures(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.failed]

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0

    def render(self) -> str:
        rows = []
        for delta in self.deltas:
            headline = (
                f"{delta.headline_delta:+.2%}"
                if delta.headline_delta is not None
                else "-"
            )
            rows.append(
                [delta.name, headline, delta.status, "; ".join(delta.notes)]
            )
        title = (
            "== benchbed comparison "
            f"(gate: headline drift >{self.headline_threshold:.0%}) =="
        )
        return render_table(
            ["benchmark", "headline", "status", "notes"], rows, title=title
        )


def compare_pair(
    old: dict[str, Any],
    new: dict[str, Any],
    *,
    headline_threshold: float = DEFAULT_HEADLINE_THRESHOLD,
) -> BenchDelta:
    """Diff two artifacts of the same benchmark."""
    name = old["name"]
    delta = BenchDelta(name=name, status="ok")
    if old["tier"] != new["tier"]:
        delta.status = "incomparable"
        delta.notes.append(
            f"tier mismatch: baseline {old['tier']!r} vs new {new['tier']!r}"
        )
        return delta
    old_head, new_head = old["headline"], new["headline"]
    if old_head["metric"] != new_head["metric"]:
        delta.status = "incomparable"
        delta.notes.append(
            f"headline metric changed: {old_head['metric']!r} -> "
            f"{new_head['metric']!r}"
        )
        return delta

    regressions, improvements = [], []

    # Headline drift, signed so that positive = worse.
    direction = new_head["direction"]
    old_value, new_value = old_head["value"], new_head["value"]
    denom = abs(old_value) if old_value else 1.0
    drift = (new_value - old_value) / denom
    delta.headline_delta = drift
    worse = drift if direction == "lower" else -drift
    if worse > headline_threshold:
        regressions.append(
            f"headline {new_head['metric']} {old_value:.4g} -> "
            f"{new_value:.4g} ({drift:+.2%} beyond {headline_threshold:.0%}, "
            f"{direction} is better)"
        )
    elif worse < -headline_threshold:
        improvements.append(f"headline {drift:+.2%}")

    floor = new_head.get("floor")
    if floor is not None and new_value < floor:
        regressions.append(
            f"headline {new_value:.4g} below absolute floor {floor:.4g}"
        )
    ceiling = new_head.get("ceiling")
    if ceiling is not None and new_value > ceiling:
        regressions.append(
            f"headline {new_value:.4g} above absolute ceiling {ceiling:.4g}"
        )

    if regressions:
        delta.status = "regression"
        delta.notes.extend(regressions)
    elif improvements:
        delta.status = "improved"
        delta.notes.extend(improvements)
    return delta


def compare_artifacts(
    old: Mapping[str, dict[str, Any]],
    new: Mapping[str, dict[str, Any]],
    *,
    headline_threshold: float = DEFAULT_HEADLINE_THRESHOLD,
) -> CompareReport:
    """Compare two artifact sets keyed by benchmark name.

    A benchmark present in the baseline but absent from the new set is a
    failure (``missing``); one only in the new set is informational
    (``new``).
    """
    deltas: list[BenchDelta] = []
    for name in sorted(old):
        if name not in new:
            deltas.append(
                BenchDelta(
                    name=name,
                    status="missing",
                    notes=["present in baseline, absent from new run"],
                )
            )
            continue
        deltas.append(
            compare_pair(
                old[name], new[name], headline_threshold=headline_threshold
            )
        )
    for name in sorted(set(new) - set(old)):
        deltas.append(
            BenchDelta(name=name, status="new", notes=["not in baseline"])
        )
    return CompareReport(deltas=deltas, headline_threshold=headline_threshold)


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
        help="run the quick fidelity tier (CI smoke) instead of full",
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
        "--baseline",
        default=None,
        metavar="PATH",
        help="compare fresh artifacts against this baseline file/directory",
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
    _add_gate_arguments(parser)
    return parser


def _add_gate_arguments(parser: argparse.ArgumentParser) -> None:
    gate = parser.add_argument_group("regression gate")
    gate.add_argument(
        "--headline-threshold",
        type=float,
        default=DEFAULT_HEADLINE_THRESHOLD,
        metavar="FRAC",
        help="fail on headline drift beyond this fraction (default 0.02)",
    )
    gate.add_argument(
        "--report-only",
        action="store_true",
        help="print the comparison report but never fail on it",
    )


def _compare_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench compare",
        description=(
            "Compare two benchmark artifact sets; exit non-zero on "
            "regression beyond the thresholds."
        ),
    )
    parser.add_argument("old", help="baseline BENCH_*.json file or directory")
    parser.add_argument("new", help="candidate BENCH_*.json file or directory")
    _add_gate_arguments(parser)
    return parser


def _compare_main(argv: Sequence[str]) -> int:
    args = _compare_parser().parse_args(list(argv))
    try:
        old = load_artifacts(args.old)
        new = load_artifacts(args.new)
    except BenchbedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = compare_artifacts(
        old, new, headline_threshold=args.headline_threshold
    )
    print(report.render())
    if report.failures:
        print(
            f"{len(report.failures)} of {len(report.deltas)} benchmark(s) "
            "failed the regression gate",
            file=sys.stderr,
        )
    if args.report_only:
        return 0
    return report.exit_code


def bench_main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro bench ...``."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "compare":
        return _compare_main(argv[1:])
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
        rows = [
            [spec.name, spec.headline, spec.unit or "-", spec.direction]
            for spec in specs
        ]
        print(
            render_table(
                ["benchmark", "headline metric", "unit", "better"],
                rows,
                title=f"== registered benchmarks ({len(specs)}) ==",
            )
        )
        return 0

    out_dir = Path(args.out)
    produced: dict[str, dict[str, Any]] = {}
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
        produced[spec.name] = artifact
        headline = artifact["headline"]
        print(
            f"{label}: {headline['metric']} = {headline['value']:.4g}"
            f"{' ' + headline['unit'] if headline['unit'] else ''} -> {path}",
            file=sys.stderr,
        )
    print(
        f"[bench] {len(produced)} of {len(specs)} benchmark(s) passed their "
        f"shape targets, tier {tier}, artifacts in {out_dir}",
        file=sys.stderr,
    )
    # A wrong shape fails the run whatever the baseline diff says:
    # --report-only softens the comparison below, never this.
    status = 1 if broken else 0
    if broken:
        print(f"error: shape targets failed in: {', '.join(broken)}", file=sys.stderr)

    if args.baseline is None:
        return status
    try:
        baseline = load_artifacts(args.baseline)
    except BenchbedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.filter:
        # A filtered run only answers for the benchmarks it ran; the
        # rest of the baseline is out of scope, not "missing".
        baseline = {name: baseline[name] for name in baseline if name in produced}
    report = compare_artifacts(
        baseline, produced, headline_threshold=args.headline_threshold
    )
    print(report.render())
    if args.report_only:
        return status
    return status or report.exit_code
