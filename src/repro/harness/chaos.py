"""Deterministic chaos injection for the resilient execution layer.

The differential safety net of :mod:`repro.harness.resilient`: a sweep
run under injected worker crashes, hangs, transient exceptions and
corrupted results must converge to records **bit-identical** to the
fault-free run — determinism makes every retry and speculative
duplicate return the same record, so recovery is invisible in the data.

A :class:`ChaosConfig` is a tuple of :class:`ChaosRule`\\ s matched by
``(job index, attempt number)`` — injection is on a fixed schedule, not
random, so every chaos run is reproducible.  A rule limited to
``attempts=(0,)`` models a transient fault (the retry misses the rule
and succeeds); ``attempts=None`` matches every attempt and models a
poison job that must end up quarantined as a
:class:`~repro.harness.resilient.JobFailure`.

Fault kinds:

* ``"crash"`` — the worker process dies mid-job (``os._exit``); in a
  serial run, raises the :class:`WorkerCrashError` stand-in so the
  retry path is exercised without killing the interpreter.
* ``"hang"`` — the worker sleeps past any deadline; serially it raises
  the :class:`JobTimeoutError` stand-in.
* ``"wedge"`` — the worker stops heartbeating *and* hangs (a frozen
  interpreter); only meaningful pooled, serially same as ``"hang"``.
* ``"transient"`` — raises :class:`ChaosTransientError` (a generic
  retryable exception).
* ``"corrupt"`` — runs the simulation but tampers with the returned
  record, exercising result validation.

``python -m repro chaos --grid`` runs the full kind x mode grid and
enforces convergence, plus an ``unsupervised`` row (``policy=None``:
the injected fault must surface as its typed error, with no worker
left alive); it is CI's ``chaos-smoke`` job.  Wall times are
report-only.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass

from repro.harness.parallel import SimJob, execute_job
from repro.harness.resilient import (
    JobTimeoutError,
    ManagedWorkerSet,
    TransientJobError,
    WorkerCrashError,
)

#: Exit code used by injected worker crashes (recognisable in logs).
CRASH_EXIT_CODE = 87

_KINDS = ("crash", "hang", "wedge", "transient", "corrupt")

#: Process-local flag read by the worker heartbeat thread; the "wedge"
#: injection sets it to simulate an interpreter freeze.
_heartbeat_suppressed = False


def heartbeat_suppressed() -> bool:
    return _heartbeat_suppressed


class ChaosTransientError(TransientJobError):
    """An injected generic transient failure."""


@dataclass(frozen=True)
class ChaosRule:
    """One injection: ``kind`` at matching ``(index, attempt)`` pairs.

    ``indices=None`` matches every job; ``attempts=None`` matches every
    attempt (a poison job).  ``seconds`` is the hang/wedge sleep;
    ``fields`` are the record fields tampered with by ``corrupt``.
    """

    kind: str
    indices: tuple[int, ...] | None = None
    attempts: tuple[int, ...] | None = (0,)
    seconds: float = 30.0
    fields: tuple[str, ...] = ("average_latency",)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown chaos kind {self.kind!r}")

    def matches(self, index: int, attempt: int) -> bool:
        if self.indices is not None and index not in self.indices:
            return False
        return self.attempts is None or attempt in self.attempts


@dataclass(frozen=True)
class ChaosConfig:
    """An ordered rule set; the first matching rule fires."""

    rules: tuple[ChaosRule, ...]

    def rule_for(self, index: int, attempt: int) -> ChaosRule | None:
        for rule in self.rules:
            if rule.matches(index, attempt):
                return rule
        return None


def chaos_execute(
    job: SimJob,
    index: int,
    attempt: int,
    chaos: ChaosConfig,
    in_worker: bool = False,
    job_fn=None,
) -> dict:
    """Run one job with the matching injection (if any) applied.

    ``chaos=None`` is a plain call.  ``in_worker`` selects real
    process-level faults (exit, sleep); an in-process attempt gets typed
    exceptions instead so the worker set's retry machinery sees the
    same failure taxonomy without killing or blocking the driving
    process.  ``job_fn`` overrides how a job is actually executed
    (default :func:`execute_job`); injections wrap whatever executor the
    embedder supplied.
    """
    if job_fn is None:
        job_fn = execute_job
    rule = chaos.rule_for(index, attempt) if chaos is not None else None
    if rule is None:
        return job_fn(job)
    if rule.kind == "crash":
        if in_worker:
            os._exit(CRASH_EXIT_CODE)
        raise WorkerCrashError(
            f"injected crash (job {index} attempt {attempt})"
        )
    if rule.kind in ("hang", "wedge"):
        if in_worker:
            if rule.kind == "wedge":
                global _heartbeat_suppressed
                _heartbeat_suppressed = True
            time.sleep(rule.seconds)
            # If nobody killed us, fall through and return the real
            # record — a late (straggler) result the worker set may
            # already have replaced; determinism keeps that safe.
            return job_fn(job)
        raise JobTimeoutError(
            f"injected {rule.kind} (job {index} attempt {attempt})"
        )
    if rule.kind == "transient":
        raise ChaosTransientError(
            f"injected transient (job {index} attempt {attempt})"
        )
    # corrupt: simulate faithfully, then damage the returned record.
    record = dict(job_fn(job))
    for fieldname in rule.fields:
        record[fieldname] = -1.0
    return record


# ----------------------------------------------------------------------
# Chaos grid: the differential convergence check behind CI chaos-smoke
# ----------------------------------------------------------------------


def _grid_jobs(quick: bool) -> list[SimJob]:
    from repro.core.config import SimulationConfig

    rates = (0.05, 0.10) if quick else (0.05, 0.10, 0.20)
    seeds = (1, 2, 3)
    return [
        SimJob.of(
            SimulationConfig(
                width=3,
                height=3,
                router="roco",
                injection_rate=rate,
                warmup_packets=10,
                measure_packets=60,
                seed=seed,
            )
        )
        for rate in rates
        for seed in seeds
    ]


def _grid_chaos(kind: str) -> ChaosConfig:
    """Transient injection on the first attempts of three of the jobs."""
    return ChaosConfig(
        rules=(
            ChaosRule(
                kind=kind, indices=(0, 2, 4), attempts=(0,), seconds=20.0
            ),
        )
    )


def _poison_chaos() -> ChaosConfig:
    """Job 1 crashes on every attempt: must end quarantined."""
    return ChaosConfig(rules=(ChaosRule(kind="crash", indices=(1,), attempts=None),))


def _run_unsupervised(jobs: list[SimJob], workers: int, chaos) -> list[dict]:
    """The jobs through a policy-less worker set; a failure is raised."""
    records: dict[int, dict] = {}
    with ManagedWorkerSet(None, workers=workers, chaos=chaos) as pool:
        for job in jobs:
            pool.submit(job)
        while pool.outstanding():
            records.update(pool.pump())
    return [records[index] for index in range(len(jobs))]


def run_chaos_grid(
    workers: int = 2, quick: bool = False, stream=None
) -> int:
    """Run the chaos kind x execution mode grid; 0 iff it converged.

    Every cell re-runs the same small sweep under injected faults and
    asserts the surviving records are bit-identical to the fault-free
    serial baseline; the poison cells additionally assert that exactly
    the poisoned job is quarantined.  The unsupervised cells run without
    a policy, where an injected fault must come out as its typed error,
    in bounded time and with every worker reaped, and a fault-free run
    must equal the baseline.  Wall times are report-only.
    """
    from repro.harness.parallel import ParallelExecutor, is_failure_record
    from repro.harness.resilient import RetryPolicy, split_failures

    stream = stream if stream is not None else sys.stdout
    jobs = _grid_jobs(quick)
    print(f"chaos grid: {len(jobs)} jobs per cell", file=stream, flush=True)
    baseline = ParallelExecutor().run_jobs(jobs)
    failures = 0

    def report(cell: str, ok: bool, wall: float, detail: str) -> None:
        status = "ok" if ok else "MISMATCH"
        print(
            f"  {cell:<24s} {status:<8s} {wall:6.2f}s  {detail}",
            file=stream,
            flush=True,
        )

    policy = RetryPolicy(
        job_timeout=2.0,
        max_retries=3,
        backoff_base=0.0,
        heartbeat_interval=0.2,
        heartbeat_timeout=10.0,
    )
    for mode, mode_workers in (("serial", None), ("pooled", workers)):
        for kind in ("crash", "hang", "transient", "corrupt"):
            executor = ParallelExecutor(
                workers=mode_workers, policy=policy, chaos=_grid_chaos(kind)
            )
            started = time.monotonic()
            records = executor.run_jobs(jobs)
            wall = time.monotonic() - started
            stats = executor.last_stats
            ok = records == baseline and stats.failures == 0
            if not ok:
                failures += 1
            report(
                f"{mode}/{kind}",
                ok,
                wall,
                f"retries={stats.retries} timeouts={stats.timeouts} "
                f"crashes={stats.worker_crashes} "
                f"corrupt={stats.corrupt_results}",
            )
        # Poison cell: an unrecoverable job must be quarantined as a
        # structured failure while every other record stays identical.
        executor = ParallelExecutor(
            workers=mode_workers, policy=policy, chaos=_poison_chaos()
        )
        started = time.monotonic()
        records = executor.run_jobs(jobs)
        wall = time.monotonic() - started
        _, failed = split_failures(records)
        survivors_ok = all(
            records[i] == baseline[i]
            for i in range(len(jobs))
            if not is_failure_record(records[i])
        )
        ok = (
            survivors_ok
            and len(failed) == 1
            and failed[0].index == 1
            and failed[0].kind == "retries-exhausted"
        )
        if not ok:
            failures += 1
        report(
            f"{mode}/poison",
            ok,
            wall,
            f"quarantined={[f.index for f in failed]}",
        )
    for kind, chaos, expected in (
        ("crash", _grid_chaos("crash"), WorkerCrashError),
        ("transient", _grid_chaos("transient"), ChaosTransientError),
        ("clean", None, None),
    ):
        before = set(multiprocessing.active_children())
        started = time.monotonic()
        try:
            records = _run_unsupervised(jobs, workers, chaos)
            raised = None
        except TransientJobError as exc:
            raised = type(exc)
        wall = time.monotonic() - started
        orphans = len(set(multiprocessing.active_children()) - before)
        ok = raised is expected and orphans == 0
        if expected is None:
            ok = ok and records == baseline
        if not ok:
            failures += 1
        report(
            f"unsupervised/{kind}",
            ok,
            wall,
            f"raised={raised.__name__ if raised else None} orphans={orphans}",
        )
    verdict = "converged" if failures == 0 else f"{failures} cell(s) diverged"
    print(f"chaos grid: {verdict}", file=stream, flush=True)
    return 0 if failures == 0 else 1


def chaos_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description=(
            "Differential chaos testing of the resilient execution layer "
            "(see docs/resilient-execution.md)"
        ),
    )
    parser.add_argument(
        "--grid",
        action="store_true",
        help=(
            "run the crash/hang/transient/corrupt x serial/pooled grid "
            "and the unsupervised row"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker processes for the pooled cells (default 2)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="trim the per-cell job list for smoke runs",
    )
    args = parser.parse_args(argv)
    if not args.grid:
        parser.error("nothing to do: pass --grid")
    return run_chaos_grid(workers=args.workers, quick=args.quick)

