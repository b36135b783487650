"""Command-line interface: ``python -m repro`` runs simulations.

A single operating point::

    python -m repro --router roco --routing xy --rate 0.2
    python -m repro --router generic --traffic transpose --rate 0.15 --size 8
    python -m repro --router roco --faults 2 --fault-class critical

Sweep mode — give several rates and/or seeds and the grid fans out over
a worker pool with an on-disk result cache (repeat invocations skip
already-simulated points)::

    python -m repro --router roco --rates 0.05,0.15,0.25 --num-seeds 3 \
        --workers 0 --cache-dir ~/.cache/repro

``--workers 0`` means "all cores"; parallel runs produce records
identical to serial ones (see docs/parallel-execution.md).

Benchmark mode — run the registered benchmark suite through the
benchbed (see docs/benchmarking.md); the comparator for a change meant
to move a paper result is ``git diff`` over the regenerated baseline::

    python -m repro bench --quick --filter "fig8*" --out bench-results
    python -m repro bench --quick --out benchmarks/baseline && git diff

Audited runs and job files — ``--audit`` checks every invariant every
cycle, in a single run or a sweep.  ``--shrink FILE`` turns any failed
single run (a stall or a violation) into a minimal job and saves its
payload; ``--replay FILE`` runs a saved job in place of the scenario
flags, with the ordinary exit status (see docs/auditing.md)::

    python -m repro --audit --router roco --rate 0.2 --faults 2 --mtbf 500
    python -m repro --audit --rate 0.3 --faults 2 --shrink job.json
    python -m repro --replay job.json

Resilient sweeps — supervise jobs with deadlines/retries, journal
completed work, and resume an interrupted campaign without duplicating
simulations (see docs/resilient-execution.md)::

    python -m repro --rates 0.05,0.15 --num-seeds 5 --workers 0 \
        --cache-dir ~/.cache/repro --job-timeout 120 --max-retries 2
    python -m repro --rates 0.05,0.15 --num-seeds 5 --workers 0 \
        --cache-dir ~/.cache/repro --resume

Serve mode — run simulations as a service: an HTTP job server that
dedupes identical concurrent requests onto one simulation, shares the
on-disk cache with batch sweeps, and streams progress as NDJSON (see
docs/serving.md)::

    python -m repro serve --workers 4 --cache-dir ~/.cache/repro
    python -m repro serve submit '{"kind": "experiment", "config": {"rate": 0.1}}'
    python -m repro serve status

The contracts of the last three modes — audited runs hold every
invariant, chaos-ridden sweeps converge bit-identical, the server
dedupes and recovers — are tier-1 tests (``tests/test_audit.py``,
``tests/test_chaos.py``, ``tests/test_serve.py``), not commands.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.core.runloop import RUN_FAILURES, DeadlockError
from repro.core.simulator import run_simulation
from repro.core.soa.errors import BackendUnsupportedError
from repro.faults.injector import describe_fault
from repro.harness.campaign import run_campaign
from repro.harness.parallel import (
    ParallelExecutor,
    ProgressPrinter,
    SimJob,
    is_failure_record,
    open_cache,
    resolve_workers,
)
from repro.harness.scenario import (
    CAMPAIGN_FLAGS,
    CONFIG_FLAGS,
    FAULT_FLAGS,
    add_flags,
    job_from_args,
)


#: ``python -m repro NAME ...``: name -> (lazy ``module:function``,
#: summary).  Neither runs a scenario: each has flags of its own, apart
#: from the simulation flags below, and is imported only when chosen.
SUBCOMMANDS = {
    "bench": (
        "repro.harness.benchbed:bench_main",
        "benchbed registry runner and fidelity artifacts (docs/benchmarking.md)",
    ),
    "serve": (
        "repro.serve.cli:serve_main",
        "job server: request dedupe, supervised execution (docs/serving.md)",
    ),
}


def load_subcommand(name: str):
    """Import and return the ``main(argv) -> int`` of one subcommand."""
    module, _, function = SUBCOMMANDS[name][0].partition(":")
    return getattr(importlib.import_module(module), function)


def _rate_list(text: str) -> list[float]:
    try:
        rates = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad rate list {text!r}") from exc
    if not rates:
        raise argparse.ArgumentTypeError(f"empty rate list {text!r}")
    return rates


#: Save or run one job's payload (single run).
JOB_FILE_FLAGS = {
    "--shrink": dict(
        metavar="FILE",
        help="when the run fails, shrink its job and save the payload here",
    ),
    "--replay": dict(
        metavar="FILE",
        help="run the job saved in FILE instead of the scenario flags",
    ),
}

#: A grid of points instead of a single simulation.
SWEEP_FLAGS = {
    "--rates": dict(
        type=_rate_list,
        metavar="R1,R2,...",
        help="comma-separated injection rates to sweep (overrides --rate)",
    ),
    "--num-seeds": dict(
        type=int, default=1, metavar="N", help="sweep N consecutive seeds from --seed"
    ),
}

#: Worker pool and result cache (sweep mode).
EXECUTION_FLAGS = {
    "--workers": dict(
        type=int,
        metavar="N",
        help="worker processes for sweeps (0 = all cores; default serial)",
    ),
    "--cache-dir": dict(
        metavar="DIR", help="directory for the on-disk result cache (enables caching)"
    ),
    "--no-cache": dict(
        action="store_true", help="ignore --cache-dir and always simulate"
    ),
}

#: Fault-tolerant sweep supervision (docs/resilient-execution.md).
RESILIENCE_FLAGS = {
    "--job-timeout": dict(
        type=float,
        metavar="SECONDS",
        help="per-job wall-clock deadline (pooled runs; enables supervision)",
    ),
    "--max-retries": dict(
        type=int,
        metavar="N",
        help="retries per job before quarantining it (enables supervision)",
    ),
    "--speculative": dict(
        action="store_true",
        help="re-execute stragglers speculatively on idle workers",
    ),
    "--journal": dict(
        metavar="FILE",
        help="sweep journal path (default: <cache-dir>/journal.jsonl "
        "when --cache-dir is set)",
    ),
    "--resume": dict(
        action="store_true",
        help="resume an interrupted sweep from its journal: completed jobs are "
        "served from the cache, quarantined failures are replayed, nothing is "
        "simulated twice",
    ),
}

#: The argument groups after the scenario flags: title -> (what, flags).
FLAG_GROUPS = {
    "fault campaign": ("inject faults mid-run, not at cycle 0", CAMPAIGN_FLAGS),
    "job files": ("SimJob payloads (single run)", JOB_FILE_FLAGS),
    "sweep mode": ("a grid of points instead of a single simulation", SWEEP_FLAGS),
    "execution": ("worker pool and result cache (sweep mode)", EXECUTION_FLAGS),
    "resilience": (
        "fault-tolerant sweep supervision (see docs/resilient-execution.md)",
        RESILIENCE_FLAGS,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cycle-accurate NoC simulation of the RoCo router and baselines",
        epilog="subcommands (python -m repro NAME --help):\n"
        + "\n".join(
            f"  {name:<8}{summary}" for name, (_, summary) in SUBCOMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_flags(parser, CONFIG_FLAGS)
    add_flags(parser, FAULT_FLAGS)
    for title, (description, flags) in FLAG_GROUPS.items():
        add_flags(parser.add_argument_group(title, description), flags)
    return parser


def _usage_error(reason: Exception | str) -> int:
    """One line for a command line that cannot be run; the exit status."""
    print(f"repro: error: {reason}", file=sys.stderr)
    return 2


def _args_error(args, sweep: bool) -> str | None:
    """Why the parsed flags cannot run together, or None when they can."""
    campaign = args.mtbf is not None or args.fault_schedule is not None
    if args.num_seeds < 1:
        return "--num-seeds must be >= 1"
    if args.fault_schedule is not None and args.mtbf is not None:
        return "--fault-schedule and --mtbf are mutually exclusive"
    if args.mtbf is not None and args.faults <= 0:
        return "--mtbf needs --faults N to know how many arrivals to sample"
    if args.transient is not None and args.transient <= 0:
        return "--transient must be a positive cycle count"
    if args.transient is not None and not campaign:
        return "--transient requires --mtbf or --fault-schedule"
    if args.weibull_shape is not None and args.mtbf is None:
        return "--weibull-shape requires --mtbf"
    if args.resume and args.journal is None and not args.cache_dir:
        return "--resume needs --journal FILE or --cache-dir DIR to find the journal"
    if sweep and (args.shrink or args.replay):
        return "--shrink and --replay run one scenario, not a sweep"
    return None


def _run_failed(exc: Exception) -> int:
    """Report a run whose outcome failed; the exit status."""
    if isinstance(exc, DeadlockError):
        print(f"repro: run did not complete: {exc}", file=sys.stderr)
    else:
        print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
    return 1


def _load_job(path: str) -> SimJob:
    """The job saved in ``path``: a ``SimJob`` payload, or a
    ``repro-audit/v1`` file (its scenario, audited)."""
    payload = json.loads(Path(path).read_text())
    try:
        if payload.pop("schema", None) is not None:
            payload.pop("violation", None)
            payload["config"]["audit"] = True
        return SimJob.from_payload(payload)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"{path} holds no job: {exc!r}") from exc


def _run_single(args) -> int:
    try:
        job = _load_job(args.replay) if args.replay else job_from_args(args)
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
    router = job.config.router
    for event in job.schedule or ():
        healing = f", heals at {event.clear_cycle}" if event.transient else ""
        print(
            f"fault @ cycle {event.cycle}: "
            f"{describe_fault(event.fault, router)}{healing}"
        )
    for fault in job.faults:
        print(f"fault: {describe_fault(fault, router)}")
    campaign = None
    try:
        if job.schedule is not None:
            campaign = run_campaign(job)
            result = campaign.result
        else:
            result = run_simulation(job.config, faults=list(job.faults))
    except RUN_FAILURES as failure:
        if args.shrink is None:
            raise
        return _shrink(job, failure, args.shrink)
    print(result.summary_line())
    print(
        f"  latency p50/p95/p99: {result.latency.p50:.1f} / "
        f"{result.latency.p95:.1f} / {result.latency.p99:.1f} cycles; "
        f"throughput {result.throughput:.3f} flits/node/cycle; "
        f"{result.cycles} cycles simulated"
    )
    if campaign is not None:
        for line in campaign.summary_lines():
            print(f"  {line}")
    if job.config.audit:
        print("audit: all invariants held", file=sys.stderr)
    return 0


def _shrink(job: SimJob, failure: Exception, path: str) -> int:
    """Report ``failure``, then save the shrunken job's payload to ``path``."""
    from repro.audit.shrink import shrink

    _run_failed(failure)
    print("shrinking...", file=sys.stderr)
    result = shrink(job)
    shrunk = result.job
    Path(path).write_text(json.dumps(shrunk.to_payload(), indent=2) + "\n")
    print(
        f"job saved to {path}: {shrunk.config.total_packets} packet(s), "
        f"{len(shrunk.faults)} static fault(s), "
        f"{len(shrunk.schedule or ())} fault event(s), "
        f"{result.runs} shrink run(s)",
        file=sys.stderr,
    )
    return 1


def _build_resilience(args, cache) -> tuple[object, object] | tuple[None, None]:
    """Resolve the resilience flags into (policy, journal)."""
    wants_policy = (
        args.job_timeout is not None
        or args.max_retries is not None
        or args.speculative
        or args.resume
        or args.journal is not None
    )
    if not wants_policy:
        return None, None
    from repro.harness.resilient import RetryPolicy, SweepJournal

    policy = RetryPolicy(job_timeout=args.job_timeout, speculative=args.speculative)
    if args.max_retries is not None:
        policy = replace(policy, max_retries=args.max_retries)
    journal_path = args.journal
    if journal_path is None and cache is not None:
        journal_path = cache.directory / "journal.jsonl"
    if journal_path is None:
        return policy, None
    return policy, SweepJournal(journal_path, resume=args.resume)


def _run_sweep(args) -> int:
    rates = args.rates if args.rates else [args.rate]
    seeds = list(range(args.seed, args.seed + args.num_seeds))
    try:
        base = job_from_args(args)
        # One fault population or campaign, drawn at --seed, strikes
        # every point of the grid.
        jobs = [
            replace(base, config=replace(base.config, injection_rate=rate, seed=seed))
            for rate in rates
            for seed in seeds
        ]
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        return _usage_error(exc)
    try:
        cache = open_cache(args.cache_dir, args.no_cache)
        policy, journal = _build_resilience(args, cache)
    except ValueError as exc:
        return _usage_error(exc)
    executor = ParallelExecutor(
        workers=workers,
        cache=cache,
        progress=ProgressPrinter(),
        policy=policy,
        journal=journal,
    )
    supervised = ", supervised" if policy is not None else ""
    print(
        f"sweep: {len(jobs)} points ({len(rates)} rates x {len(seeds)} seeds), "
        f"{executor.workers} worker(s){supervised}"
        + (f", cache at {cache.directory}" if cache else "")
        + (f", journal at {journal.path}" if journal is not None else ""),
        file=sys.stderr,
    )
    records = executor.run_jobs(jobs)
    for record in records:
        if is_failure_record(record):
            print(
                f"        FAILED [{record['kind']}] {record['error_type']} "
                f"after {record['attempts']} attempt(s): {record['message']}"
            )
            continue
        print(
            f"{record['router']:>14s} {record['routing']:>8s} "
            f"{record['traffic']:>12s} rate={record['injection_rate']:.2f} "
            f"seed={record['seed']} lat={record['average_latency']:7.2f} cyc "
            f"tput={record['throughput']:.3f} "
            f"E/pkt={record['energy_per_packet_nj']:6.3f} nJ"
        )
    stats = executor.last_stats
    print(
        f"done: {stats.describe()}, {stats.elapsed_seconds:.1f}s",
        file=sys.stderr,
    )
    if cache is not None:
        print(f"cache: {cache.summary()}", file=sys.stderr)
    if journal is not None:
        journal.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command line; ``tests/test_cli.py`` holds its exit status.

    0: it ran.  1: the run's outcome failed — a healthy mesh stopped
    draining or an invariant broke (``RUN_FAILURES``), in a single run,
    a replayed job or an unsupervised sweep.  2: it cannot be run — a
    flag value, a file that holds no job, or a configuration outside the
    chosen engine's envelope, is the user's error, not a traceback.  Any
    other error from inside a run propagates.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        return load_subcommand(argv[0])(argv[1:])
    args = build_parser().parse_args(argv)
    sweep = args.rates is not None or args.num_seeds > 1
    error = _args_error(args, sweep)
    if error is not None:
        return _usage_error(error)
    try:
        return _run_sweep(args) if sweep else _run_single(args)
    except BackendUnsupportedError as exc:
        return _usage_error(exc)
    except RUN_FAILURES as exc:
        return _run_failed(exc)


if __name__ == "__main__":
    sys.exit(main())
