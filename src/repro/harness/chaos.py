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

The kind x mode grid that enforces convergence — plus the unsupervised
cells (``policy=None``: the injected fault must surface as its typed
error, with no worker left alive) — is
``tests/test_chaos.py::TestChaosGrid::test_cell``; this
module is only the injection seam the worker set takes as ``chaos=``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.harness.parallel import SimJob, execute_job
from repro.harness.resilient import (
    JobTimeoutError,
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
