"""``python -m repro audit`` — run simulations with invariant auditing.

Modes:

* single audited run (default): same simulation flags as the main CLI,
  with auditing forced on; exits 1 on a violation.
* ``--shrink FILE``: on violation, delta-debug the scenario down to a
  minimal reproducer and save it as runnable JSON.
* ``--replay FILE``: load a reproducer and re-run it under audit.

A run that fails to drain exits 1 unless fault events struck it: a
faulty mesh may legally strand packets, a fault-free one may not.  The
router x rate x fault x scheduler grid of audited runs is
``tests/test_audit.py::TestCleanRuns::test_audited_fault_campaign_holds``.
"""

from __future__ import annotations

import argparse
import sys

from repro.audit.invariants import InvariantViolation
from repro.audit.shrink import load_reproducer, save_reproducer, shrink
from repro.core.config import SimulationConfig
from repro.core.simulator import DeadlockError, Simulator
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
        # A faulty run may legally fail to drain; a fault-free one may not.
        if not schedule:
            raise
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


def audit_main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.interval < 1:
        print("error: --interval must be >= 1", file=sys.stderr)
        return 2
    try:
        if args.replay is not None:
            return _run_replay(args)
        return _run_single(args)
    except DeadlockError:
        return 1  # fault-free and did not drain: _run_audited said so
