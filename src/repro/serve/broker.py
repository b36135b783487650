"""The job broker: one warm cache, one worker set, many clients.

:class:`JobBroker` is the server's core and is deliberately transport
free — the HTTP layer (:mod:`repro.serve.server`), the CLI and the
tests all talk to the same object:

* **Dedupe** — every submission is normalized to its
  :func:`~repro.harness.parallel.job_key`.  A key already in flight is
  *coalesced*: the submission attaches to the existing entry and all
  waiters resolve from the single execution.  A key in the shared
  :class:`~repro.harness.parallel.ResultCache` resolves immediately
  without simulating.  N identical concurrent requests therefore run
  exactly one simulation (``tests/test_serve.py`` proves bit-identical
  fan-in under threads, workers and injected crashes).
* **Execution** — jobs run on a
  :class:`~repro.harness.resilient.ManagedWorkerSet` supervised by the
  server's :class:`~repro.harness.resilient.RetryPolicy` (crash
  recovery, deadlines, straggler speculation — the same machinery the
  chaos grid certifies for batch sweeps).  Where a pool cannot exist
  (``workers<=1``, daemonic context, no entry point to replay) the set runs
  attempts on the broker's pump thread, under the same policy.
* **Admission control** — at most ``max_inflight`` distinct jobs may
  be queued or running; beyond that :meth:`submit` raises
  :class:`SaturatedError`, which the HTTP layer maps to a 503
  load-shed response with a ``Retry-After`` hint.
* **Events** — every entry accumulates an ordered event list
  (``queued``/``coalesced``/``running``/``retry``/``telemetry``/
  ``completed``/``failed``); :meth:`events_after` is a blocking,
  resumable read the streaming endpoint long-polls.

Thread-safety: :meth:`submit`, :meth:`status` and :meth:`events_after`
may be called from any thread; one internal pump thread owns the
worker set.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import queue
import threading
import time
from dataclasses import asdict, dataclass

from repro.core.simulator import run_simulation
from repro.harness.export import result_record
from repro.harness.parallel import (
    ExecutionStats,
    ResultCache,
    SimJob,
    job_key,
    pool_fallback_reason,
    resolve_workers,
)
from repro.harness.resilient import (
    JobFailure,
    ManagedWorkerSet,
    RetryPolicy,
)

#: Record field carrying per-job SchedulerCounters telemetry out of the
#: worker; the broker strips it before caching or returning the record,
#: so server-mode records stay byte-identical to batch-mode ones, and
#: streams it in the job's ``completed`` event instead.
TELEMETRY_FIELD = "_serve_scheduler"


def serve_execute_job(job: SimJob) -> dict:
    """Worker entry point for server jobs: record + scheduler telemetry.

    Top-level so worker processes can import it.  Identical to
    :func:`~repro.harness.parallel.execute_job` except for the
    :data:`TELEMETRY_FIELD` side channel.
    """
    result = run_simulation(
        job.config, faults=list(job.faults), schedule=job.schedule
    )
    record = result_record(result)
    record[TELEMETRY_FIELD] = asdict(result.scheduler)
    return record


class SaturatedError(RuntimeError):
    """Admission control rejected a submission (queue at capacity)."""

    def __init__(self, in_flight: int, limit: int) -> None:
        super().__init__(
            f"server saturated: {in_flight} jobs in flight (limit {limit})"
        )
        self.in_flight = in_flight
        self.limit = limit
        #: Client hint: one median job duration would be ideal; a small
        #: constant is honest enough for a shed response.
        self.retry_after = 1.0


@dataclass
class Ticket:
    """What a submission bought: the job's key and its future result."""

    key: str
    future: concurrent.futures.Future
    coalesced: bool = False
    cached: bool = False


class _Entry:
    """One distinct job the broker knows about (in flight or settled)."""

    __slots__ = (
        "key",
        "job",
        "future",
        "state",
        "waiters",
        "events",
        "cond",
        "created",
        "settled_at",
        "index",
    )

    def __init__(self, key: str, job: SimJob) -> None:
        self.key = key
        self.job = job
        self.future = concurrent.futures.Future()
        self.state = "queued"
        self.waiters = 1
        self.events: list[dict] = []
        self.cond = threading.Condition()
        self.created = time.monotonic()
        self.settled_at: float | None = None
        self.index: int | None = None

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")


#: Sentinel telling the pump thread to exit.
_CLOSE = object()


class JobBroker:
    """See module docstring.  Construct, :meth:`start`, submit, close."""

    def __init__(
        self,
        cache: ResultCache | None = None,
        workers: int | None = None,
        policy: RetryPolicy | None = None,
        chaos=None,
        max_inflight: int = 64,
        history_limit: int = 1024,
        telemetry_interval: float = 1.0,
        job_fn=serve_execute_job,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.cache = cache
        self.workers = resolve_workers(workers)
        self.policy = policy if policy is not None else RetryPolicy()
        self.chaos = chaos
        self.max_inflight = max_inflight
        self.history_limit = history_limit
        self.telemetry_interval = telemetry_interval
        self.job_fn = job_fn
        self.stats = ExecutionStats()
        self.requests = 0
        self.coalesced = 0
        self.shed = 0
        self.simulations_run = 0
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._entries: dict[str, _Entry] = {}  # every known key
        self._inflight: dict[str, _Entry] = {}  # queued or running
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._by_index: dict[int, _Entry] = {}
        self._started = time.monotonic()
        self._closing = False
        self._pool: ManagedWorkerSet | None = None
        self._pool_fallback = pool_fallback_reason(self.workers)
        self._thread: threading.Thread | None = None
        self._last_telemetry = 0.0

    # -- lifecycle -----------------------------------------------------

    @property
    def mode(self) -> str:
        """``"pooled"`` (worker processes) or ``"inline"`` (pump thread).

        Known before :meth:`start`; it is the worker set's own rule.
        """
        if self.workers > 1 and self._pool_fallback is None:
            return "pooled"
        return "inline"

    def start(self) -> "JobBroker":
        if self._thread is not None:
            raise RuntimeError("broker already started")
        self._pool = ManagedWorkerSet(
            policy=self.policy,
            workers=self.workers,
            chaos=self.chaos,
            stats=self.stats,
            on_retry=self._on_retry,
            job_fn=self.job_fn,
        )
        self._thread = threading.Thread(
            target=self._pump_loop, name="serve-broker", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        with self._lock:
            if self._closing:
                return
            self._closing = True
        self._queue.put(_CLOSE)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        if self._pool is not None:
            self._pool.close()
        # Anyone still waiting gets a definite answer, not a hang.
        with self._lock:
            entries = list(self._inflight.values())
        for entry in entries:
            if not entry.future.done():
                entry.future.set_exception(
                    RuntimeError("server shut down before the job settled")
                )
            self._publish(entry, {"event": "failed", "reason": "shutdown"})
            self._settle_state(entry, "failed")

    def __enter__(self) -> "JobBroker":
        return self.start() if self._thread is None else self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------

    def submit(self, job: SimJob) -> Ticket:
        """Admit one job; coalesce, serve from cache, or enqueue."""
        key = job_key(job)
        with self._lock:
            if self._closing:
                raise RuntimeError("broker is closed")
            self.requests += 1
            entry = self._inflight.get(key)
            if entry is not None:
                # In-flight dedupe: attach to the running execution.
                self.coalesced += 1
                entry.waiters += 1
                self._publish(
                    entry, {"event": "coalesced", "waiters": entry.waiters}
                )
                return Ticket(key=key, future=entry.future, coalesced=True)
            settled = self._entries.get(key)
            if settled is not None and settled.terminal:
                # Already answered this session (memory is the fastest
                # cache tier); hand the same future out again.
                return Ticket(
                    key=key, future=settled.future, cached=True
                )
            if len(self._inflight) >= self.max_inflight:
                self.shed += 1
                raise SaturatedError(len(self._inflight), self.max_inflight)
            # Reserve the slot *before* the cache lookup so concurrent
            # identical submissions coalesce instead of racing the IO.
            entry = _Entry(key, job)
            self._entries[key] = entry
            self._inflight[key] = entry
            self._trim_history()
        self._publish(entry, {"event": "queued", "mode": self.mode})
        if self.cache is not None:
            cached = self.cache.lookup(key)
            if cached is not None:
                self._resolve_entry(entry, dict(cached), cached=True)
                return Ticket(key=key, future=entry.future, cached=True)
        self._queue.put(entry)
        return Ticket(key=key, future=entry.future)

    def submit_request(self, payload: object) -> dict:
        """Normalize and admit a protocol request; the HTTP submit body.

        Partial saturation is reported, not rolled back: jobs admitted
        before the limit hit keep running (their results are cached and
        shared, so the work is never wasted).
        """
        from repro.serve.protocol import normalize_request

        request = normalize_request(payload)
        tickets: list[Ticket] = []
        shed_after: int | None = None
        for job in request.jobs:
            try:
                tickets.append(self.submit(job))
            except SaturatedError:
                shed_after = len(tickets)
                break
        reply = {
            "kind": request.kind,
            "jobs": [
                {
                    "key": t.key,
                    "coalesced": t.coalesced,
                    "cached": t.cached,
                }
                for t in tickets
            ],
            "total_jobs": len(request.jobs),
        }
        if shed_after is not None:
            reply["shed_after"] = shed_after
        return reply

    # -- queries -------------------------------------------------------

    def entry_state(self, key: str) -> dict | None:
        """Public state of one job, or ``None`` if unknown."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            state = {
                "key": key,
                "state": entry.state,
                "waiters": entry.waiters,
                "age_seconds": round(time.monotonic() - entry.created, 3),
            }
        if entry.terminal and entry.future.done():
            exc = entry.future.exception()
            if exc is None:
                state["record"] = entry.future.result()
        return state

    def result(self, key: str, timeout: float | None = None) -> dict | None:
        """Block for a job's record (``None`` if the key is unknown)."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            return None
        return entry.future.result(timeout=timeout)

    def events_after(
        self, key: str, start: int, timeout: float = 0.5
    ) -> tuple[list[dict], bool] | None:
        """Events of ``key`` with ``seq > start``; blocks up to timeout.

        Returns ``(events, terminal)`` — ``terminal`` True once the
        job's final event has been published — or ``None`` for an
        unknown key.  Streaming handlers call this in a loop, passing
        the last seq they saw.
        """
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            return None
        with entry.cond:
            fresh = [e for e in entry.events if e["seq"] > start]
            if not fresh and not entry.terminal:
                entry.cond.wait(timeout)
                fresh = [e for e in entry.events if e["seq"] > start]
            # Publishes and the terminal transition both happen under
            # this condition, and nothing publishes after the terminal
            # event, so this snapshot is consistent.
            return fresh, entry.terminal

    def status(self) -> dict:
        """The ``/status`` payload: counters, liveness, in-flight table."""
        with self._lock:
            now = time.monotonic()
            inflight = [
                {
                    "key": e.key,
                    "state": e.state,
                    "waiters": e.waiters,
                    "age_seconds": round(now - e.created, 3),
                }
                for e in self._inflight.values()
            ]
            snapshot = {
                "mode": self.mode,
                "workers": self.workers,
                "uptime_seconds": round(now - self._started, 3),
                "requests": self.requests,
                "coalesced": self.coalesced,
                "shed": self.shed,
                "simulations_run": self.simulations_run,
                "in_flight": inflight,
                "in_flight_limit": self.max_inflight,
                "execution": self._stats_payload(),
            }
            if self._pool_fallback is not None and self.workers > 1:
                snapshot["pool_fallback"] = self._pool_fallback
        snapshot["cache"] = (
            self.cache.counters() if self.cache is not None else None
        )
        snapshot["worker_liveness"] = (
            self._pool.worker_liveness() if self._pool is not None else []
        )
        return snapshot

    def _stats_payload(self) -> dict:
        stats = self.stats
        return {
            "retries": stats.retries,
            "failures": stats.failures,
            "timeouts": stats.timeouts,
            "worker_crashes": stats.worker_crashes,
            "corrupt_results": stats.corrupt_results,
            "speculative": stats.speculative,
            "speculative_wins": stats.speculative_wins,
        }

    # -- internals -----------------------------------------------------

    def _publish(self, entry: _Entry, event: dict) -> None:
        event = dict(event)
        event["key"] = entry.key
        event["seq"] = next(self._seq)
        event["elapsed"] = round(time.monotonic() - entry.created, 3)
        with entry.cond:
            entry.events.append(event)
            entry.cond.notify_all()

    def _settle_state(self, entry: _Entry, state: str) -> None:
        with self._lock:
            entry.state = state
            entry.settled_at = time.monotonic()
            self._inflight.pop(entry.key, None)
            if entry.index is not None:
                self._by_index.pop(entry.index, None)
        # Wake streamers blocked past the final publish.
        with entry.cond:
            entry.cond.notify_all()

    def _trim_history(self) -> None:
        """Drop the oldest settled entries beyond the history bound.

        Caller holds ``self._lock``.
        """
        if len(self._entries) <= self.history_limit:
            return
        settled = sorted(
            (e for e in self._entries.values() if e.terminal),
            key=lambda e: e.settled_at or 0.0,
        )
        excess = len(self._entries) - self.history_limit
        for entry in settled[:excess]:
            self._entries.pop(entry.key, None)

    def _resolve_entry(
        self, entry: _Entry, outcome, cached: bool = False
    ) -> None:
        """Terminal transition: record or JobFailure, futures resolved."""
        if isinstance(outcome, JobFailure):
            record = outcome.record()
            self._publish(
                entry,
                {
                    "event": "failed",
                    "kind": outcome.kind,
                    "error_type": outcome.error_type,
                    "message": outcome.message,
                    "attempts": outcome.attempts,
                },
            )
            self._settle_state(entry, "failed")
            entry.future.set_result(record)
            return
        record = dict(outcome)
        telemetry = record.pop(TELEMETRY_FIELD, None)
        if not cached:
            with self._lock:
                self.simulations_run += 1
            if self.cache is not None:
                self.cache.store(entry.key, record)
        event = {"event": "completed", "cached": cached}
        if telemetry is not None:
            event["scheduler"] = telemetry
        self._publish(entry, event)
        self._settle_state(entry, "done")
        entry.future.set_result(record)

    def _on_retry(self, index: int, attempt: int, reason: str) -> None:
        with self._lock:
            entry = self._by_index.get(index)
        if entry is not None:
            self._publish(
                entry,
                {"event": "retry", "attempt": attempt + 1, "reason": reason},
            )

    def _maybe_telemetry(self) -> None:
        now = time.monotonic()
        if now - self._last_telemetry < self.telemetry_interval:
            return
        self._last_telemetry = now
        with self._lock:
            live = list(self._inflight.values())
            stats = self._stats_payload()
        if not live:
            return
        cache = self.cache.counters() if self.cache is not None else None
        liveness = sum(1 for w in self._pool.worker_liveness() if w["alive"])
        for entry in live:
            self._publish(
                entry,
                {
                    "event": "telemetry",
                    "execution": stats,
                    "cache": cache,
                    "alive_workers": liveness,
                },
            )

    def _pump_loop(self) -> None:
        while True:
            closing = False
            # Admit queued entries to the worker set.
            while not closing:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _CLOSE:
                    closing = True
                elif not item.future.done():  # else settled while queued
                    index = self._pool.submit(item.job)
                    with self._lock:
                        item.index = index
                        item.state = "running"
                        self._by_index[index] = item
                    self._publish(item, {"event": "running", "mode": self.mode})
            # pump() blocks <= POLL_INTERVAL when idle, so this loop does
            # not spin; in inline mode it runs one attempt to its end.
            for index, outcome in self._pool.pump():
                with self._lock:
                    entry = self._by_index.get(index)
                if entry is not None:
                    self._resolve_entry(entry, outcome)
            self._maybe_telemetry()
            if closing:
                return
