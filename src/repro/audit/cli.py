"""``python -m repro audit`` — run simulations with invariant auditing.

Modes:

* single audited run (default): same simulation flags as the main CLI,
  with auditing forced on; exits 1 on a violation.
* ``--shrink FILE``: on violation, delta-debug the scenario down to a
  minimal reproducer and save it as runnable JSON.
* ``--replay FILE``: load a reproducer and re-run it under audit.
* ``--grid``: the CI smoke matrix — a small rate x router x fault grid
  under both schedulers, reporting per-cell wall time (report-only) and
  failing the process on any violation.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.audit.invariants import InvariantViolation
from repro.audit.shrink import load_reproducer, save_reproducer, shrink
from repro.core.config import RouterConfig, SimulationConfig
from repro.core.simulator import DeadlockError, Simulator, run_simulation
from repro.core.types import grid_nodes
from repro.faults.schedule import FaultSchedule
from repro.harness.scenario import (
    CAMPAIGN_FLAGS,
    CONFIG_FLAGS,
    FAULT_FLAGS,
    add_flags,
    job_from_args,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro audit",
        description="Run simulations with per-cycle invariant auditing",
    )
    add_flags(
        parser,
        CONFIG_FLAGS,
        # The audit engine walks the object model in one piece.
        omit=("--shards", "--backend"),
        packets=dict(default=500),
        warmup=dict(default=100),
    )
    parser.add_argument(
        "--full-sweep",
        action="store_true",
        help="step every router every cycle (reference scheduler)",
    )
    parser.add_argument(
        "--interval",
        type=int,
        default=1,
        metavar="N",
        help="audit every Nth cycle (location continuity needs 1)",
    )
    faults = parser.add_argument_group("faults")
    add_flags(faults, FAULT_FLAGS, faults=dict(help="runtime faults to sample"))
    add_flags(
        faults,
        CAMPAIGN_FLAGS,
        mtbf=dict(
            help="mean time between sampled fault arrivals (default 500)"
        ),
    )
    modes = parser.add_argument_group("modes")
    modes.add_argument(
        "--shrink",
        default=None,
        metavar="FILE",
        help="on violation, shrink the scenario and save a JSON reproducer",
    )
    modes.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-run a saved reproducer under audit",
    )
    modes.add_argument(
        "--grid",
        action="store_true",
        help="run the CI smoke grid (rate x router x fault, both schedulers)",
    )
    return parser


def _describe(violation: InvariantViolation) -> None:
    print(f"INVARIANT VIOLATION: {violation}", file=sys.stderr)


def _run_audited(
    config: SimulationConfig,
    schedule: FaultSchedule | None,
    full_sweep: bool = False,
    interval: int = 1,
) -> InvariantViolation | None:
    sim = Simulator(config, schedule=schedule, full_sweep=full_sweep)
    if sim.audit is not None:
        sim.audit.interval = interval
    try:
        result = sim.run()
    except InvariantViolation as violation:
        return violation
    except DeadlockError as exc:
        print(f"run did not complete: {exc}", file=sys.stderr)
        return None
    print(result.summary_line())
    return None


def _run_single(args) -> int:
    # ``--faults N`` alone samples a runtime campaign: an audited run
    # wants faults striking live state, not a pre-wired mesh.
    job = job_from_args(args, default_mtbf=500.0, audit=True)
    config, schedule = job.config, job.schedule
    violation = _run_audited(
        config, schedule, full_sweep=args.full_sweep, interval=args.interval
    )
    if violation is None:
        print("audit: all invariants held", file=sys.stderr)
        return 0
    _describe(violation)
    if args.shrink:
        print("shrinking...", file=sys.stderr)
        result = shrink(config, schedule)
        save_reproducer(args.shrink, result.config, result.schedule, result.violation)
        print(
            f"reproducer saved to {args.shrink}: "
            f"{result.config.total_packets} packet(s), "
            f"{len(result.schedule) if result.schedule else 0} fault event(s), "
            f"{result.runs} shrink run(s)",
            file=sys.stderr,
        )
    return 1


def _run_replay(args) -> int:
    config, schedule, recorded = load_reproducer(args.replay)
    print(
        f"replaying {args.replay}: expecting [{recorded.get('invariant')}] "
        f"around cycle {recorded.get('cycle')}",
        file=sys.stderr,
    )
    violation = _run_audited(config, schedule, full_sweep=args.full_sweep)
    if violation is None:
        print("reproducer ran clean (violation did not reproduce)", file=sys.stderr)
        return 1
    _describe(violation)
    return 0


def _run_grid(args) -> int:
    """The audit-smoke matrix: tiny audited runs across the state space.

    Wall time is printed per cell but is report-only; the exit status
    reflects invariant violations (and unexpected crashes) alone.
    """
    failures = 0
    cells = 0
    for router in ("roco", "generic"):
        for rate in (0.05, 0.2):
            for fault_count in (0, 2):
                for full_sweep in (False, True):
                    cells += 1
                    config = SimulationConfig(
                        width=4,
                        height=4,
                        router=router,
                        routing="xy-yx" if router == "roco" else "xy",
                        injection_rate=rate,
                        warmup_packets=30,
                        measure_packets=150,
                        seed=args.seed,
                        audit=True,
                    )
                    schedule = None
                    if fault_count:
                        schedule = FaultSchedule.sampled(
                            grid_nodes(config.width, config.height),
                            count=fault_count,
                            seed=args.seed,
                            mtbf=150.0,
                            critical=True,
                            router_config=RouterConfig.for_architecture(router),
                        )
                    label = (
                        f"{router:>8s} rate={rate:.2f} faults={fault_count} "
                        f"{'full-sweep' if full_sweep else 'active'}"
                    )
                    started = time.perf_counter()
                    try:
                        run_simulation(
                            config, schedule=schedule, full_sweep=full_sweep
                        )
                        status = "ok"
                    except InvariantViolation as violation:
                        failures += 1
                        status = "VIOLATION"
                        _describe(violation)
                    except DeadlockError as exc:
                        # A faulty grid cell may legally fail to drain;
                        # a fault-free one may not.
                        if fault_count:
                            status = f"no-drain ({type(exc).__name__})"
                        else:
                            failures += 1
                            status = f"DEADLOCK: {exc}"
                    elapsed = time.perf_counter() - started
                    print(f"{label}: {status} [{elapsed:.2f}s]")
    print(
        f"audit grid: {cells} cells, {failures} failure(s)",
        file=sys.stderr,
    )
    return 1 if failures else 0


def audit_main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.interval < 1:
        print("error: --interval must be >= 1", file=sys.stderr)
        return 2
    if args.replay is not None and args.grid:
        print("error: --replay and --grid are mutually exclusive", file=sys.stderr)
        return 2
    if args.grid:
        return _run_grid(args)
    if args.replay is not None:
        return _run_replay(args)
    return _run_single(args)
