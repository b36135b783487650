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

Audit mode — run with per-cycle invariant checking, shrink failures to
minimal reproducers, or replay one (see docs/auditing.md)::

    python -m repro audit --router roco --rate 0.2 --faults 2
    python -m repro audit --rate 0.3 --shrink repro.json
    python -m repro audit --replay repro.json

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
import sys
from dataclasses import replace

from repro.core.simulator import run_simulation
from repro.core.soa.errors import BackendUnsupportedError
from repro.harness.campaign import run_campaign
from repro.harness.parallel import (
    ParallelExecutor,
    ProgressPrinter,
    ResultCache,
    SimJob,
    is_failure_record,
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
#: summary).  Each subcommand has an argument surface separate from the
#: simulation flags below and is imported only when it is chosen.
SUBCOMMANDS = {
    "audit": (
        "repro.audit.cli:audit_main",
        "invariant-audited runs, shrinking, reproducer replay (docs/auditing.md)",
    ),
    "bench": (
        "repro.harness.benchbed:bench_main",
        "benchbed registry runner and fidelity artifacts (docs/benchmarking.md)",
    ),
    "shards": (
        "repro.harness.sharded:sharded_main",
        "one run stepped as tiles, per-tile counters (docs/sharded-scaling.md)",
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
    add_flags(
        parser.add_argument_group(
            "fault campaign", "inject faults mid-run instead of before wiring"
        ),
        CAMPAIGN_FLAGS,
    )
    sweep = parser.add_argument_group(
        "sweep mode", "run a grid of points instead of a single simulation"
    )
    sweep.add_argument(
        "--rates",
        type=_rate_list,
        default=None,
        metavar="R1,R2,...",
        help="comma-separated injection rates to sweep (overrides --rate)",
    )
    sweep.add_argument(
        "--num-seeds",
        type=int,
        default=1,
        metavar="N",
        help="sweep N consecutive seeds starting at --seed",
    )
    execution = parser.add_argument_group(
        "execution", "worker pool and result cache (sweep mode)"
    )
    execution.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweeps (0 = all cores; default serial)",
    )
    execution.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="directory for the on-disk result cache (enables caching)",
    )
    execution.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir and always simulate",
    )
    resilience = parser.add_argument_group(
        "resilience",
        "fault-tolerant sweep supervision (see docs/resilient-execution.md)",
    )
    resilience.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock deadline (pooled runs; enables supervision)",
    )
    resilience.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per job before quarantining it (enables supervision)",
    )
    resilience.add_argument(
        "--speculative",
        action="store_true",
        help="re-execute stragglers speculatively on idle workers",
    )
    resilience.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help=(
            "sweep journal path (default: <cache-dir>/journal.jsonl "
            "when --cache-dir is set)"
        ),
    )
    resilience.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted sweep from its journal: completed "
            "jobs are served from the cache, quarantined failures are "
            "replayed, nothing is simulated twice"
        ),
    )
    return parser


def _rate_list(text: str) -> list[float]:
    try:
        rates = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad rate list {text!r}") from exc
    if not rates:
        raise argparse.ArgumentTypeError(f"empty rate list {text!r}")
    return rates


def _usage_error(reason: Exception | str) -> int:
    """One line for a command line that cannot be run; the exit status."""
    print(f"repro: error: {reason}", file=sys.stderr)
    return 2


def _campaign_args_valid(args) -> str | None:
    """Return an error message when the campaign flags are inconsistent."""
    if args.fault_schedule is not None and args.mtbf is not None:
        return "--fault-schedule and --mtbf are mutually exclusive"
    if args.mtbf is not None and args.faults <= 0:
        return "--mtbf needs --faults N to know how many arrivals to sample"
    if args.transient is not None and args.transient <= 0:
        return "--transient must be a positive cycle count"
    if (
        args.transient is not None
        and args.fault_schedule is None
        and args.mtbf is None
    ):
        return "--transient requires --mtbf or --fault-schedule"
    if args.weibull_shape is not None and args.mtbf is None:
        return "--weibull-shape requires --mtbf"
    return None


def _run_single(args) -> int:
    try:
        job = job_from_args(args)
    except ValueError as exc:
        return _usage_error(exc)
    campaign = None
    if job.schedule is not None:
        for event in job.schedule:
            healing = (
                f", heals at {event.clear_cycle}" if event.transient else ""
            )
            print(
                f"fault @ cycle {event.cycle}: {event.fault.component.value} "
                f"at {event.fault.node} ({event.fault.module} module){healing}"
            )
        campaign = run_campaign(job.config, job.schedule)
        result = campaign.result
    else:
        for fault in job.faults:
            print(
                f"fault: {fault.component.value} at {fault.node} "
                f"({fault.module} module)"
            )
        result = run_simulation(job.config, faults=list(job.faults))
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
    return 0


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

    policy_kwargs = {"speculative": args.speculative}
    if args.job_timeout is not None:
        policy_kwargs["job_timeout"] = args.job_timeout
    if args.max_retries is not None:
        policy_kwargs["max_retries"] = args.max_retries
    policy = RetryPolicy(**policy_kwargs)
    journal_path = args.journal
    if journal_path is None and cache is not None:
        journal_path = cache.directory / "journal.jsonl"
    journal = None
    if journal_path is not None:
        journal = SweepJournal(journal_path, resume=args.resume)
    return policy, journal


def _run_sweep(args) -> int:
    if args.faults and args.mtbf is None and args.fault_schedule is None:
        return _usage_error(
            "static --faults is not supported in sweep mode "
            "(use --mtbf or --fault-schedule for campaigns)"
        )
    rates = args.rates if args.rates else [args.rate]
    seeds = list(range(args.seed, args.seed + args.num_seeds))
    try:
        base = job_from_args(args)
        # One campaign, sampled at --seed, strikes every point of the grid.
        jobs = [
            SimJob.of(
                replace(base.config, injection_rate=rate, seed=seed),
                schedule=base.schedule,
            )
            for rate in rates
            for seed in seeds
        ]
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        return _usage_error(exc)
    cache = None
    if args.cache_dir and not args.no_cache:
        cache = ResultCache(args.cache_dir)
    policy, journal = _build_resilience(args, cache)
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
    """Run one command line; a configuration outside the chosen engine's
    envelope is the user's error (exit 2), not a traceback — like a flag
    value the job or the executor refuses when it is built from it."""
    try:
        return _dispatch(argv)
    except BackendUnsupportedError as exc:
        return _usage_error(exc)


def _dispatch(argv: list[str] | None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        return load_subcommand(argv[0])(argv[1:])
    args = build_parser().parse_args(argv)
    if args.num_seeds < 1:
        return _usage_error("--num-seeds must be >= 1")
    campaign_error = _campaign_args_valid(args)
    if campaign_error is not None:
        return _usage_error(campaign_error)
    if args.resume and args.journal is None and not args.cache_dir:
        return _usage_error(
            "--resume needs --journal FILE or --cache-dir DIR "
            "to locate the sweep journal"
        )
    if args.rates is not None or args.num_seeds > 1:
        return _run_sweep(args)
    return _run_single(args)


if __name__ == "__main__":
    sys.exit(main())
