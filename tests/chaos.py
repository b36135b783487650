"""Deterministic fault injection for the job engine, as a job function.

A :class:`ChaosConfig` is a tuple of :class:`ChaosRule`\\ s matched by
``(job index, attempt number)``: injection is on a fixed schedule, not
random, so every chaos run is reproducible.  A rule limited to
``attempts=(0,)`` models a transient fault (the retry misses the rule
and succeeds); ``attempts=None`` matches every attempt and models a
poison job that must end up quarantined as a
:class:`~repro.harness.resilient.JobFailure`.

The config *is* the job function: pass it as ``job_fn=`` to
:class:`~repro.harness.parallel.ParallelExecutor`,
:class:`~repro.harness.resilient.ManagedWorkerSet` or
:class:`~repro.serve.broker.JobBroker`, which call it as
``config(job, index, attempt)``.  In a worker process a fault is real
(``os._exit``, a sleep, ``SIGSTOP``); in the owner's own process, where
it would kill or block the test run, it is the typed exception the
engine would have classified it as.

Fault kinds:

* ``"crash"`` — the worker process dies mid-job (``os._exit``);
  in-process, :class:`WorkerCrashError`.
* ``"hang"`` — the worker sleeps ``seconds`` and then returns the real
  record; in-process, :class:`JobTimeoutError`.
* ``"freeze"`` — the worker stops itself (``SIGSTOP``), heartbeat
  thread included, so only the missing heartbeat can catch it;
  in-process, :class:`WorkerCrashError`.
* ``"transient"`` — raises :class:`ChaosTransientError` (a generic
  retryable exception).
* ``"corrupt"`` — runs the job but tampers with the returned record,
  exercising result validation.

Workers import this module by name, so it imports no ``pytest``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from typing import Callable

from repro.harness.parallel import SimJob, execute_job
from repro.harness.resilient import (
    JobTimeoutError,
    TransientJobError,
    WorkerCrashError,
)

#: Exit code used by injected worker crashes (recognisable in logs).
CRASH_EXIT_CODE = 87

_KINDS = ("crash", "hang", "freeze", "transient", "corrupt")


class ChaosTransientError(TransientJobError):
    """An injected generic transient failure."""


@dataclass(frozen=True)
class ChaosRule:
    """One injection: ``kind`` at matching ``(index, attempt)`` pairs.

    ``indices=None`` matches every job; ``attempts=None`` matches every
    attempt (a poison job).  ``seconds`` is the hang's sleep;
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
    """An ordered rule set; the first matching rule fires.

    ``job_fn`` is the job function the faults wrap, called like the
    config itself; ``None`` runs :func:`execute_job`.
    """

    rules: tuple[ChaosRule, ...]
    job_fn: Callable[[SimJob, int, int], dict] | None = None

    def rule_for(self, index: int, attempt: int) -> ChaosRule | None:
        for rule in self.rules:
            if rule.matches(index, attempt):
                return rule
        return None

    def run(self, job: SimJob, index: int, attempt: int) -> dict:
        if self.job_fn is None:
            return execute_job(job)
        return self.job_fn(job, index, attempt)

    def __call__(self, job: SimJob, index: int, attempt: int) -> dict:
        rule = self.rule_for(index, attempt)
        if rule is None:
            return self.run(job, index, attempt)
        in_worker = multiprocessing.parent_process() is not None
        where = f"job {index} attempt {attempt}"
        if rule.kind == "crash":
            if in_worker:
                os._exit(CRASH_EXIT_CODE)
            raise WorkerCrashError(f"injected crash ({where})")
        if rule.kind == "hang":
            if in_worker:
                time.sleep(rule.seconds)
                # If nobody killed us, return the real record: a late
                # (straggler) result the worker set may already have
                # replaced; determinism keeps that safe.
                return self.run(job, index, attempt)
            raise JobTimeoutError(f"injected hang ({where})")
        if rule.kind == "freeze":
            if in_worker:
                os.kill(os.getpid(), signal.SIGSTOP)
                return self.run(job, index, attempt)
            raise WorkerCrashError(f"injected freeze ({where})")
        if rule.kind == "transient":
            raise ChaosTransientError(f"injected transient ({where})")
        # corrupt: run faithfully, then damage the returned record.
        record = dict(self.run(job, index, attempt))
        for fieldname in rule.fields:
            record[fieldname] = -1.0
        return record
