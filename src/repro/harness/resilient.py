"""Fault-tolerant sweep execution: retries, deadlines, crash recovery.

The paper's thesis is graceful degradation — a RoCo mesh keeps
delivering packets while components die.  This module applies the same
discipline to the harness itself: a 1000-job sweep must survive a
worker segfault, a hung cell, or one job raising
:class:`~repro.core.simulator.DrainTimeoutError`, and still produce the
records every other job would have produced.

Pieces:

* :class:`ManagedWorkerSet` — the one engine that executes a job, for
  :class:`~repro.harness.parallel.ParallelExecutor` and the job server
  alike: one pipe per worker process, heartbeat threads, liveness
  checks, kill-and-replenish on crash, deadline or heartbeat loss — or
  the same attempt, classification and retry code run in-process where
  no pool can exist;
* :class:`RetryPolicy` — per-job wall-clock deadlines, bounded retry
  with exponential backoff, speculative re-execution of stragglers
  (``None`` is the unsupervised value: the first failure is raised);
* :class:`JobFailure` — a structured quarantine record for a job that
  could not be completed; it travels through ``run_jobs`` results (as a
  marker dict, see ``FAILURE_MARKER``) instead of an exception that
  kills the sweep;
* :class:`SweepJournal` — an append-only JSONL journal of completed
  ``job_key``s and failures, enabling ``--resume`` of interrupted
  sweeps with zero duplicate simulations;
* :func:`validate_record` — structural validation of worker results so
  a corrupted record is retried instead of silently accepted.

Failure taxonomy (docs/resilient-execution.md):

* **fatal** — deterministic simulation errors: a failed run
  (:data:`~repro.core.runloop.RUN_FAILURES`, a ``DeadlockError`` or an
  ``AuditViolation``) or ``BackendUnsupportedError``.
  Retrying a pure function of the job cannot help; quarantine
  immediately.
* **transient** — worker crashes, deadline timeouts, corrupted results
  and any other exception.  Retried with exponential backoff until the
  per-job ``max_retries`` runs out, then quarantined as a crash loop.

Determinism: a simulation is a pure function of its job, so a retried
or speculatively duplicated execution returns the same record, and a
fault-ridden sweep converges bit-identically to the fault-free run.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path

from repro.core.runloop import RUN_FAILURES
from repro.core.soa.errors import BackendUnsupportedError
from repro.harness.parallel import (
    FAILURE_MARKER,
    ExecutionStats,
    SimJob,
    execute_job,
    pool_fallback_reason,
    worker_context,
)

#: Exception types for which a retry is provably pointless: the
#: simulator is deterministic, so the same job raises the same error.
FATAL_EXCEPTIONS = (*RUN_FAILURES, BackendUnsupportedError)

#: Growth of the delay between successive retries of one job.
BACKOFF_FACTOR = 2.0

#: A running job is a straggler once it has run this many times the
#: median of recent completions, and at least this many seconds.
STRAGGLER_FACTOR = 4.0
STRAGGLER_MIN_SECONDS = 2.0

#: Recent completion times kept for that median.
DURATION_WINDOW = 64

#: Longest one :meth:`ManagedWorkerSet.pump` waits for worker messages.
POLL_INTERVAL = 0.02

#: Minimum grace before a worker that has not yet spoken (still booting
#: the interpreter / importing the simulator) can be declared wedged.
_BOOT_GRACE = 60.0

#: The process that imported this module.  A worker forked from the
#: preloaded server (:func:`~repro.harness.parallel.worker_context`)
#: reads its parent's pid here; a worker that had to import the package
#: itself reads its own — how tests/test_worker_context.py tells them
#: apart without a clock.
IMPORTED_IN_PID = os.getpid()


class TransientJobError(RuntimeError):
    """Base class of the transient (retryable) job errors."""


class WorkerCrashError(TransientJobError):
    """A worker process died mid-job."""


class JobTimeoutError(TransientJobError):
    """A job attempt exceeded its wall-clock deadline."""


class CorruptResultError(TransientJobError):
    """A worker returned a structurally invalid record."""


# ----------------------------------------------------------------------
# Policy and failure records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs for one sweep (all durations in seconds).

    ``job_timeout`` is enforced only on worker processes — an
    in-process attempt cannot be preempted.  ``max_retries`` bounds the
    re-executions of a single job.  ``speculative`` launches a duplicate
    of a straggling job on an otherwise idle worker; the first result
    wins (determinism makes duplicates safe).
    """

    job_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    speculative: bool = False
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 30.0
    validate: bool = True

    def __post_init__(self) -> None:
        # A deadline or heartbeat of zero or less would fail every
        # attempt as a timeout, and negative retries would still run one.
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError(
                f"job_timeout must be > 0 seconds, got {self.job_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        for name in ("heartbeat_interval", "heartbeat_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be > 0 seconds, got {getattr(self, name)}"
                )

    def backoff(self, attempt: int) -> float:
        """Delay before launching ``attempt`` (the first retry is 1)."""
        if self.backoff_base <= 0:
            return 0.0
        return self.backoff_base * BACKOFF_FACTOR ** max(attempt - 1, 0)


#: What ``policy=None`` means to the engine: one attempt, records taken
#: as returned; the worker set raises the failure instead of recording it.
_UNSUPERVISED = RetryPolicy(max_retries=0, validate=False)


@dataclass(frozen=True)
class JobFailure:
    """A job the worker set gave up on, as data instead of an exception.

    ``kind`` is ``"fatal"`` (deterministic simulation error) or
    ``"retries-exhausted"`` (crash loop / persistent transient).
    ``attempts`` counts every launch, the first execution included.
    """

    index: int
    kind: str
    error_type: str
    message: str
    attempts: int
    key: str | None = None

    def record(self) -> dict:
        """The marker dict carried through ``run_jobs`` results."""
        return {
            FAILURE_MARKER: True,
            "index": self.index,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "key": self.key,
        }

    @classmethod
    def from_record(cls, payload: dict, index: int | None = None) -> "JobFailure":
        return cls(
            index=payload["index"] if index is None else index,
            kind=payload["kind"],
            error_type=payload["error_type"],
            message=payload["message"],
            attempts=payload["attempts"],
            key=payload.get("key"),
        )

    def describe(self) -> str:
        return (
            f"job {self.index} [{self.kind}] {self.error_type} "
            f"after {self.attempts} attempt(s): {self.message}"
        )


# ----------------------------------------------------------------------
# Result validation (corrupt-result detection)
# ----------------------------------------------------------------------

#: Fields every genuine result record carries (a structural subset of
#: repro.harness.export.RESULT_FIELDS), with non-negativity checks for
#: the numeric ones.  Cheap enough to run on every completion.
_REQUIRED_FIELDS = ("router", "routing", "traffic", "seed", "cycles")
_NON_NEGATIVE_FIELDS = ("average_latency", "throughput", "injection_rate")


def validate_record(record: object) -> None:
    """Raise :class:`CorruptResultError` unless ``record`` looks sane."""
    if not isinstance(record, dict):
        raise CorruptResultError(f"record is {type(record).__name__}, not dict")
    for name in _REQUIRED_FIELDS:
        if name not in record:
            raise CorruptResultError(f"record missing field {name!r}")
    for name in _NON_NEGATIVE_FIELDS:
        value = record.get(name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise CorruptResultError(f"field {name!r} is not a number")
        if math.isnan(value) or math.isinf(value) or value < 0:
            raise CorruptResultError(f"field {name!r} has bad value {value!r}")
    cycles = record["cycles"]
    if not isinstance(cycles, int) or cycles < 1:
        raise CorruptResultError(f"field 'cycles' has bad value {cycles!r}")


# ----------------------------------------------------------------------
# Sweep journal (resume support)
# ----------------------------------------------------------------------


class SweepJournal:
    """Append-only JSONL journal of completed job keys and failures.

    One line per event: ``{"event": "ok", "key": ...}`` or ``{"event":
    "failure", "key": ..., "failure": {...}}``.  Opened with
    ``resume=True`` it replays an existing journal and cuts it back to
    its last newline, dropping a line torn by a crash before the next
    append can land on it; otherwise it starts fresh.  Every append is
    flushed and fsynced so a killed sweep loses at most the in-flight
    line.
    """

    def __init__(self, path: str | Path, resume: bool = False) -> None:
        self.path = Path(path)
        self.completed_keys: set[str] = set()
        self.failures: dict[str, dict] = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume and self.path.exists():
            self._load()
            self._handle = self.path.open("a", encoding="utf-8")
        else:
            self._handle = self.path.open("w", encoding="utf-8")

    def _load(self) -> None:
        data = self.path.read_bytes()
        whole = data.rfind(b"\n") + 1
        if whole < len(data):
            os.truncate(self.path, whole)  # the torn tail of a killed run
        for line in data[:whole].decode("utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # appended onto a torn tail by an older version
            key = entry.get("key")
            if not key:
                continue
            if entry.get("event") == "ok":
                self.completed_keys.add(key)
                self.failures.pop(key, None)
            elif entry.get("event") == "failure":
                if key not in self.completed_keys:
                    self.failures[key] = entry.get("failure", {})

    def failure_for(self, key: str, index: int) -> JobFailure:
        """Replay a journaled failure at the current run's job index."""
        return replace(
            JobFailure.from_record(self.failures[key], index=index), key=key
        )

    def record_ok(self, key: str) -> None:
        if key in self.completed_keys:
            return
        self.completed_keys.add(key)
        self.failures.pop(key, None)
        self._append({"event": "ok", "key": key})

    def record_failure(self, key: str, failure: JobFailure) -> None:
        payload = failure.record()
        payload.pop(FAILURE_MARKER, None)
        self.failures[key] = payload
        self._append({"event": "failure", "key": key, "failure": payload})

    def _append(self, entry: dict) -> None:
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self.flush()

    def flush(self) -> None:
        if self._handle.closed:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __len__(self) -> int:
        return len(self.completed_keys) + len(self.failures)


def _classify(exc: Exception) -> tuple[str, bool]:
    """Map an exception to (stats counter name, fatal?)."""
    if isinstance(exc, WorkerCrashError):
        return "worker_crashes", False
    if isinstance(exc, JobTimeoutError):
        return "timeouts", False
    if isinstance(exc, CorruptResultError):
        return "corrupt_results", False
    return "errors", isinstance(exc, FATAL_EXCEPTIONS)


# ----------------------------------------------------------------------
# The two attempt sites: a worker process, or the owner's own process
# ----------------------------------------------------------------------


def _attempt(job: SimJob, index: int, attempt: int, job_fn):
    """Execute one attempt of one job; the only call into job code.

    ``job_fn(job, index, attempt)``, or ``execute_job(job)`` when
    ``job_fn`` is ``None``.  ``execute_job`` is looked up when the
    attempt runs, not when the set was built, so a caller that rebinds
    the module attribute (perfbench's tracer) sees in-process attempts.
    """
    if job_fn is None:
        return execute_job(job)
    return job_fn(job, index, attempt)


def _worker_main(worker_id, conn, heartbeat_interval, job_fn):
    """Worker loop: recv task, execute, send result; heartbeat thread.

    Runs until the owner kills the process or closes the pipe.
    Top-level so a child process can import it by name.  All sends share one
    lock because the heartbeat thread and the main loop write to the
    same pipe.
    """
    send_lock = threading.Lock()
    stop = threading.Event()

    def _send(message) -> None:
        with send_lock:
            conn.send(message)

    def _beat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                _send(("hb", worker_id))
            except (OSError, ValueError):
                return

    threading.Thread(target=_beat, daemon=True).start()
    try:
        _send(("ready", worker_id))
        while True:
            index, attempt, job = conn.recv()
            try:
                record = _attempt(job, index, attempt, job_fn)
                _send(("done", worker_id, index, attempt, record))
            except Exception as exc:
                # The exception crosses the pipe as (class, args, state)
                # and is rebuilt without calling __init__, because an
                # __init__ with its own signature (DrainTimeoutError's
                # census) does not survive a plain pickle round trip.
                header = ("error", worker_id, index, attempt)
                try:
                    _send(header + (type(exc), exc.args, vars(exc)))
                except (pickle.PicklingError, TypeError, AttributeError):
                    _send(header + (RuntimeError, (repr(exc),), {}))
    except (EOFError, KeyboardInterrupt, OSError):
        pass
    finally:
        stop.set()


@dataclass
class _Running:
    index: int
    attempt: int
    started: float
    speculative: bool = False


class _WorkerHandle:
    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.last_heartbeat = time.monotonic()
        self.running: _Running | None = None
        #: Set once the worker has sent any message; heartbeat timeouts
        #: only apply after that (boot cost must not look like a wedge).
        self.ready = False


# ----------------------------------------------------------------------
# The job engine
# ----------------------------------------------------------------------


class ManagedWorkerSet:
    """The one engine that executes a :class:`SimJob`.

    :meth:`submit` enqueues a job at any point in the set's lifetime,
    :meth:`pump` runs one supervision pass and returns the newly settled
    ``(index, record | JobFailure)`` pairs, :meth:`close` reaps every
    worker.  A batch caller (:class:`ParallelExecutor`) submits all and
    pumps until :meth:`outstanding` is zero; a daemon (the job server's
    broker) keeps one warm set and feeds it for as long as it lives.

    Where attempts run is the set's own choice, made from what it can
    observe.  With ``workers > 1`` and a parent that may have children
    each worker is a process started from
    :func:`~repro.harness.parallel.worker_context` — a fork of the
    preloaded fork server, ``spawn`` where there is none — on its own
    duplex pipe with a heartbeat thread; a pass assigns ready jobs to
    idle workers, drains messages, enforces per-attempt deadlines and
    heartbeat liveness, kills and replenishes crashed or wedged workers
    and speculatively re-executes stragglers.  A forked worker inherits
    the server's modules — the package and the parent's entry point,
    imported there once as ``__mp_main__`` — with the environment, the
    entry point's module-level state and the hash seed as of the parent
    process's first pool (one per parent process, not one per worker;
    records may not depend on them), and the parent's cwd, ``sys.argv``
    and ``sys.path`` as of its own start.  With ``workers <= 1``, or where
    :func:`~repro.harness.parallel.pool_fallback_reason` says no pool
    can exist, a pass runs one ready job in this process instead.  A
    finished attempt goes through the same validation, classification
    and retry-or-quarantine code either way; only deadlines and
    heartbeats need a process to kill.

    ``policy=None`` is the unsupervised value of the same engine: no
    retries, no validation, and the first failed attempt is re-raised
    from :meth:`pump` with its original type once every worker has been
    reaped, so a dead worker surfaces as :class:`WorkerCrashError`
    instead of a hang.

    ``job_fn`` is how an attempt runs a job: it is called as
    ``job_fn(job, index, attempt)``, with the index the job was
    submitted under and the 0-based number of that job's launch, and
    returns the record; ``None`` calls
    :func:`~repro.harness.parallel.execute_job` on the job alone.  It
    must be a picklable top-level callable when workers are processes.

    Not thread-safe: one owner thread submits and pumps.  ``stats``
    accumulates recovery counters across every job ever submitted.
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        workers: int = 1,
        stats: ExecutionStats | None = None,
        on_retry=None,
        job_fn=None,
    ) -> None:
        self.unsupervised = policy is None
        self.policy = _UNSUPERVISED if policy is None else policy
        self.stats = stats if stats is not None else ExecutionStats()
        self.job_fn = job_fn
        self.on_retry = on_retry
        # Per-job state lives only while the job is unsettled, so a
        # long-lived set stays as small as its backlog.
        self.jobs: dict[int, SimJob] = {}
        self.launches: dict[int, int] = {}  # index -> attempts started
        self.inflight: dict[int, set[int]] = {}  # index -> worker ids
        self.ready: deque[int] = deque()
        self.delayed: list[tuple[float, int, int]] = []  # (when, seq, index)
        self.durations: deque[float] = deque(maxlen=DURATION_WINDOW)
        self.out: list[tuple[int, object]] = []
        self.workers: dict[int, _WorkerHandle] = {}
        self._seq = itertools.count()
        self._worker_ids = itertools.count()
        self._next_index = itertools.count()
        self._closed = False
        inline = workers <= 1 or pool_fallback_reason(workers) is not None
        #: Worker processes kept alive; 0 means attempts run in-process.
        self.pool_size = 0 if inline else workers
        while len(self.workers) < self.pool_size:
            self._spawn_worker()

    # -- public interface ----------------------------------------------

    def submit(self, job: SimJob, index: int | None = None) -> int:
        """Enqueue a job; returns the index its outcome will carry.

        ``index`` defaults to a counter; a caller with its own numbering
        (the executor's job positions) passes it.
        """
        if self._closed:
            raise RuntimeError("worker set is closed")
        if index is None:
            index = next(self._next_index)
        if index in self.jobs:
            raise ValueError(f"job index {index} already submitted")
        self.jobs[index] = job
        self.ready.append(index)
        return index

    def pump(self) -> list[tuple[int, object]]:
        """One supervision pass; newly settled ``(index, outcome)``\\ s.

        Blocks at most ``POLL_INTERVAL`` when there is nothing to do
        (and for one whole attempt when attempts run in-process), so a
        driving loop can call it back-to-back without spinning.
        """
        if self._closed:
            return []
        now = time.monotonic()
        while self.delayed and self.delayed[0][0] <= now:
            _, _, index = heapq.heappop(self.delayed)
            if index in self.jobs:
                self.ready.append(index)
        if self.pool_size:
            self._assign_ready()
            self._maybe_speculate()
            self._drain_messages()
            # A worker freed by that drain gets its next job now, not
            # after the caller has filed what this pass returns.
            self._assign_ready()
            self._check_liveness()
        elif self.ready:
            self._attempt_inline(self.ready.popleft())
        else:
            time.sleep(POLL_INTERVAL)
        settled, self.out = self.out, []
        return settled

    def outstanding(self) -> int:
        """Jobs submitted but not yet settled."""
        return len(self.jobs)

    def worker_liveness(self) -> list[dict]:
        """Status snapshot of every live worker (for ``/status``)."""
        now = time.monotonic()
        report = []
        for handle in self.workers.values():
            running = handle.running
            report.append(
                {
                    "worker": handle.worker_id,
                    "pid": handle.process.pid,
                    "alive": handle.process.is_alive(),
                    "ready": handle.ready,
                    "running_index": (
                        running.index if running is not None else None
                    ),
                    "busy_seconds": (
                        round(now - running.started, 3)
                        if running is not None
                        else None
                    ),
                    "heartbeat_age": round(now - handle.last_heartbeat, 3),
                }
            )
        return report

    def close(self) -> None:
        """Kill every worker and wait for it.

        Idle or busy, a worker holds nothing worth a graceful exit, and
        interpreter teardown would cost a batch caller ~30 ms per call.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self.workers.values():
            handle.process.kill()
        for handle in self.workers.values():
            handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self.workers.clear()

    def __enter__(self) -> "ManagedWorkerSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- worker lifecycle ----------------------------------------------

    def _spawn_worker(self) -> None:
        worker_id = next(self._worker_ids)
        context = worker_context()
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=_worker_main,
            args=(
                worker_id,
                child_conn,
                self.policy.heartbeat_interval,
                self.job_fn,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.workers[worker_id] = _WorkerHandle(worker_id, process, parent_conn)

    def _discard_worker(self, handle: _WorkerHandle, kill: bool) -> None:
        self.workers.pop(handle.worker_id, None)
        self._job_finished(handle)
        if kill and handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=1.0)
        try:
            handle.conn.close()
        except OSError:
            pass

    # -- scheduling ----------------------------------------------------

    def _idle_workers(self) -> list[_WorkerHandle]:
        return [h for h in self.workers.values() if h.running is None]

    def _assign_ready(self) -> None:
        while self.ready:
            # Replenish the pool if workers died while work remains.
            idle = self._idle_workers()
            if not idle:
                if len(self.workers) < self.pool_size:
                    self._spawn_worker()
                return
            index = self.ready.popleft()
            if index in self.jobs:
                self._launch(idle[0], index, speculative=False)

    def _count_launch(self, index: int) -> int:
        """Count one launch of ``index``; returns the attempt number."""
        attempt = self.launches.get(index, 0)
        self.launches[index] = attempt + 1
        return attempt

    def _launch(
        self, handle: _WorkerHandle, index: int, speculative: bool
    ) -> None:
        attempt = self._count_launch(index)
        try:
            handle.conn.send((index, attempt, self.jobs[index]))
        except (OSError, ValueError, BrokenPipeError):
            # Worker died between liveness check and send (at boot, of
            # an entry point it could not import): put the job back and
            # drop the worker now, or the assign loop offers it the same
            # job forever; the loop then starts its replacement.
            self.launches[index] -= 1
            self.ready.appendleft(index)
            self._discard_worker(handle, kill=True)
            return
        handle.running = _Running(
            index=index,
            attempt=attempt,
            started=time.monotonic(),
            speculative=speculative,
        )
        self.inflight.setdefault(index, set()).add(handle.worker_id)
        if speculative:
            self.stats.speculative += 1

    def _maybe_speculate(self) -> None:
        if not self.policy.speculative or self.ready or self.delayed:
            return
        idle = self._idle_workers()
        if not idle:
            return
        threshold = STRAGGLER_MIN_SECONDS
        if self.durations:
            median = sorted(self.durations)[len(self.durations) // 2]
            threshold = max(threshold, STRAGGLER_FACTOR * median)
        now = time.monotonic()
        for handle in list(self.workers.values()):
            if not idle:
                return
            running = handle.running
            if running is None or running.index not in self.jobs:
                continue
            if len(self.inflight.get(running.index, ())) > 1:
                continue  # already duplicated
            if now - running.started < threshold:
                continue
            self._launch(idle.pop(), running.index, speculative=True)

    def _attempt_inline(self, index: int) -> None:
        """Run one attempt in this process.

        Nothing can preempt it, so deadlines and heartbeats do not apply
        here.  An interrupt is not an ``Exception`` and leaves through
        :meth:`pump`.
        """
        attempt = self._count_launch(index)
        started = time.monotonic()
        try:
            record = _attempt(self.jobs[index], index, attempt, self.job_fn)
        except Exception as exc:
            self._failed_attempt(index, attempt, exc)
        else:
            self._finished_attempt(index, attempt, record, started, False)

    # -- attempt outcomes (shared by both attempt sites) ---------------

    def _job_finished(self, handle: _WorkerHandle) -> _Running | None:
        running = handle.running
        handle.running = None
        if running is not None:
            self.inflight.get(running.index, set()).discard(handle.worker_id)
        return running

    def _settle(self, index: int, outcome) -> None:
        """Hand out a job's outcome and forget the job.

        A late result or a speculative loser is recognised afterwards
        by ``index not in self.jobs``.
        """
        del self.jobs[index]
        self.launches.pop(index, None)
        self.inflight.pop(index, None)
        self.out.append((index, outcome))

    def _finished_attempt(
        self, index: int, attempt: int, record, started: float, speculative: bool
    ) -> None:
        if self.policy.validate:
            try:
                validate_record(record)
            except CorruptResultError as exc:
                self._failed_attempt(index, attempt, exc)
                return
        self.durations.append(time.monotonic() - started)
        if speculative:
            self.stats.speculative_wins += 1
        self._settle(index, record)

    def _failed_attempt(self, index: int, attempt: int, exc: Exception) -> None:
        if index not in self.jobs:
            return
        counter, fatal = _classify(exc)
        if counter != "errors":
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if self.inflight.get(index):
            # A duplicate of this job is still running; let it decide.
            return
        if fatal:
            kind = "fatal"
        elif self.launches[index] > self.policy.max_retries:
            kind = "retries-exhausted"
        else:  # retry, after the backoff delay
            self.stats.retries += 1
            if self.on_retry is not None:
                self.on_retry(index, attempt, type(exc).__name__)
            when = time.monotonic() + self.policy.backoff(self.launches[index])
            heapq.heappush(self.delayed, (when, next(self._seq), index))
            return
        if self.unsupervised:
            # Reap first, so that no child outlives the exception.
            self.close()
            raise exc
        failure = JobFailure(
            index=index,
            kind=kind,
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=self.launches[index],
        )
        self._settle(index, failure)

    # -- message / liveness passes -------------------------------------

    def _handle_message(self, handle: _WorkerHandle, message) -> None:
        kind = message[0]
        handle.ready = True
        handle.last_heartbeat = time.monotonic()
        if kind in ("hb", "ready"):
            return
        index, attempt = message[2:4]
        running = self._job_finished(handle)
        if running is None or index not in self.jobs:
            return  # speculative loser or post-timeout late arrival
        if kind == "done":
            self._finished_attempt(
                index, attempt, message[4], running.started, running.speculative
            )
        else:
            cls, args, state = message[4:]
            exc = cls.__new__(cls, *args)
            vars(exc).update(state)
            self._failed_attempt(index, attempt, exc)

    def _drain_messages(self) -> None:
        conns = {h.conn: h for h in self.workers.values()}
        if not conns:
            time.sleep(POLL_INTERVAL)
            return
        try:
            ready = _connection_wait(list(conns), timeout=POLL_INTERVAL)
        except OSError:
            return
        for conn in ready:
            handle = conns[conn]
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    break  # dead worker; the liveness pass reaps it
                self._handle_message(handle, message)

    def _check_liveness(self) -> None:
        now = time.monotonic()
        policy = self.policy
        for handle in list(self.workers.values()):
            running = handle.running
            if not handle.process.is_alive():
                self._discard_worker(handle, kill=False)
                if running is not None:
                    self._failed_attempt(
                        running.index,
                        running.attempt,
                        WorkerCrashError(
                            f"worker {handle.worker_id} died "
                            f"(exitcode {handle.process.exitcode})"
                        ),
                    )
                continue
            if (
                running is not None
                and policy.job_timeout is not None
                and now - running.started > policy.job_timeout
            ):
                self._discard_worker(handle, kill=True)
                self._failed_attempt(
                    running.index,
                    running.attempt,
                    JobTimeoutError(
                        f"attempt exceeded {policy.job_timeout:.1f}s deadline"
                    ),
                )
                continue
            hb_timeout = policy.heartbeat_timeout
            if hb_timeout is not None and not handle.ready:
                hb_timeout = max(hb_timeout, _BOOT_GRACE)
            if (
                hb_timeout is not None
                and now - handle.last_heartbeat > hb_timeout
            ):
                self._discard_worker(handle, kill=True)
                if running is not None:
                    self._failed_attempt(
                        running.index,
                        running.attempt,
                        WorkerCrashError(
                            f"worker {handle.worker_id} stopped heartbeating"
                        ),
                    )
