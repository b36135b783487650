"""Parallel experiment execution with an on-disk result cache.

Every study in this repository ultimately reduces to "run a list of
:class:`~repro.core.config.SimulationConfig` points and collect their
flat records".  This module makes that list embarrassingly parallel:

* :class:`SimJob` — one unit of work (a config plus its optional fault
  population), picklable so it survives a worker-process boundary;
* :func:`job_key` — a stable content hash of a job, used to key the
  result cache (and to detect that two jobs are the same experiment);
* :class:`ResultCache` — a directory of ``<key>.json`` records so a
  repeated sweep performs zero new simulations;
* :class:`ParallelExecutor` — serves jobs from the cache and a resumed
  journal, hands the rest to a
  :class:`~repro.harness.resilient.ManagedWorkerSet` (worker processes
  started from :func:`worker_context`, or in-process where no pool can
  exist) and returns records in submission order.

Determinism: a simulation is a pure function of its job — the simulator
seeds its only RNG from ``config.seed`` and touches no global state —
so serial and parallel execution produce bit-identical records, and a
cached record equals the record a fresh run would produce.  The
equivalence is asserted by ``tests/test_parallel.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import multiprocessing
import os
import site
import sys
import threading
import time
import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.config import SimulationConfig, reject_unknown
from repro.core.simulator import run_simulation
from repro.faults.injector import ComponentFault
from repro.faults.schedule import FaultSchedule
from repro.harness.export import result_record

#: Bump when record contents or key semantics change; stale cache
#: entries written under another version are ignored.
CACHE_VERSION = 1

#: Marker key of a failure record produced by the resilient layer: a
#: quarantined job travels through ``run_jobs`` results as a dict with
#: this key set (see :class:`repro.harness.resilient.JobFailure`)
#: instead of an exception that aborts the sweep.
FAILURE_MARKER = "job_failed"

#: ``progress(done, total, record)`` — invoked after every completed
#: job (cache hits included), in completion order.
ProgressCallback = Callable[[int, int, dict], None]


def is_failure_record(record: dict) -> bool:
    """Whether a ``run_jobs`` record is a quarantined-job failure."""
    return bool(record.get(FAILURE_MARKER))


@dataclass(frozen=True)
class SimJob:
    """One simulation to run: a configuration plus its fault population.

    ``faults`` strike at cycle 0; ``schedule`` is a runtime fault
    campaign consumed mid-run.  Both are part of the cache
    key, but the key of a schedule-free job is unchanged from earlier
    versions so existing caches stay valid.
    """

    config: SimulationConfig
    faults: tuple[ComponentFault, ...] = ()
    schedule: FaultSchedule | None = None

    @classmethod
    def of(
        cls,
        config: SimulationConfig,
        faults: Sequence[ComponentFault] | None = None,
        schedule: FaultSchedule | None = None,
    ) -> "SimJob":
        return cls(
            config=config,
            faults=tuple(faults) if faults else (),
            schedule=schedule if schedule else None,
        )

    def to_payload(self) -> dict:
        """Plain-JSON description of the job; what :func:`job_key` hashes.

        ``schedule`` follows the config codec's rule — present only for
        campaign jobs — so schedule-free keys (and any cache built from
        them) are byte-identical to prior versions.
        """
        payload = {
            "config": self.config.to_payload(),
            "faults": [fault.to_payload() for fault in self.faults],
        }
        if self.schedule is not None:
            payload["schedule"] = self.schedule.to_payload()
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "SimJob":
        """Inverse of :meth:`to_payload`; an unknown key raises
        ``ValueError`` naming it."""
        reject_unknown("job", payload, ("config", "faults", "schedule"))
        schedule = payload.get("schedule")
        return cls(
            config=SimulationConfig.from_payload(payload["config"]),
            faults=tuple(
                ComponentFault.from_payload(f) for f in payload.get("faults", ())
            ),
            schedule=None
            if schedule is None
            else FaultSchedule.from_payload(schedule),
        )


def job_key(job: SimJob) -> str:
    """Stable content hash of a job (hex digest).

    The key covers the cache version and the job's whole payload —
    config, fault population, schedule — so any change to what is
    simulated changes the key.  Equal jobs always hash equal across
    processes and sessions (the payload is serialised with sorted keys
    and no float coercion).
    """
    payload = {"version": CACHE_VERSION, **job.to_payload()}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed result cache: one ``<job_key>.json`` per record.

    ``hits`` / ``misses`` / ``stores`` / ``corrupt`` count lookups since
    construction; tests (and the CLI's cache summary) read them to prove
    a repeated run performed zero new simulations.  An unparseable entry
    is not a silent permanent miss: it is quarantined to
    ``<key>.corrupt`` (preserving the evidence) and counted, so the next
    store repopulates the slot.  A store the disk refuses (full,
    read-only, no permission) is counted in ``failed_stores`` and
    otherwise ignored: a cache that cannot write is a slower cache, and
    the record it was handed is still delivered.

    One instance may be shared by concurrent threads (the job server
    keeps a single warm cache for every client): the counters are
    guarded by a lock so ``summary()`` / :meth:`counters` reflect exact
    totals, and the store path is already safe against concurrent
    writers of the same key (unique tmp names + atomic replace).
    """

    #: Per-process counter making concurrent stores' tmp names unique.
    _tmp_counter = itertools.count()

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.failed_stores = 0
        #: Guards the five counters above.  ``x += 1`` on an instance
        #: attribute is a read-modify-write that can interleave between
        #: bytecodes, so unsynchronized concurrent lookups undercount.
        self._lock = threading.Lock()

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def counters(self) -> dict:
        """Consistent snapshot of the five counters."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "corrupt": self.corrupt,
                "failed_stores": self.failed_stores,
            }

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def lookup(self, key: str) -> dict | None:
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            self._count("misses")
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not an object")
            record = (
                payload["record"]
                if payload.get("version") == CACHE_VERSION
                else None
            )
        except (ValueError, KeyError):
            self._quarantine(path)
            self._count("misses")
            return None
        if record is None:  # wrong version: stale but well-formed
            self._count("misses")
            return None
        self._count("hits")
        return record

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so the slot can be rebuilt."""
        self._count("corrupt")
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            pass  # a concurrent process already moved or replaced it

    def store(self, key: str, record: dict) -> None:
        payload = {"version": CACHE_VERSION, "key": key, "record": record}
        # The tmp name must be unique per writer: two workers storing
        # the same key with a shared ``<key>.tmp`` can interleave a
        # write with the other's atomic replace.
        tmp = self.directory / (
            f"{key}.{os.getpid()}.{next(self._tmp_counter)}.tmp"
        )
        try:
            tmp.write_text(json.dumps(payload, indent=2) + "\n")
            tmp.replace(self.path_for(key))
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            self._count("failed_stores")
            return
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._count("stores")

    def summary(self) -> str:
        """One-line cache statistics for CLI reports."""
        snapshot = self.counters()
        line = (
            f"{snapshot['hits']} hits, {snapshot['misses']} misses, "
            f"{snapshot['stores']} stores"
        )
        if snapshot["corrupt"]:
            line += f", {snapshot['corrupt']} corrupt (quarantined)"
        if snapshot["failed_stores"]:
            line += f", {snapshot['failed_stores']} failed stores"
        return line

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


def open_cache(directory: str | None, disabled: bool = False) -> ResultCache | None:
    """The cache a command line's ``--cache-dir`` / ``--no-cache`` ask for.

    A path that cannot be made a directory (a file, a read-only parent)
    is a bad flag value, raised as ValueError, like any other.
    """
    if not directory or disabled:
        return None
    try:
        return ResultCache(directory)
    except OSError as exc:
        raise ValueError(
            f"--cache-dir {directory} is not a usable directory: "
            f"{exc.strerror or exc}"
        ) from exc


def execute_job(job: SimJob) -> dict:
    """Run one job to completion and flatten it to a record.

    Top-level so a worker process can import it by name.
    """
    result = run_simulation(
        job.config, faults=list(job.faults), schedule=job.schedule
    )
    return result_record(result)


class NestedPoolFallbackWarning(RuntimeWarning):
    """A worker-pool request was demoted to inline execution.

    Raised as a *warning* (not an error) because in-process attempts
    produce identical records — but silently losing parallelism inside
    a server or a nested sweep is worth surfacing.
    """


def _in_daemonic_process() -> bool:
    """Whether this process is a daemonic pool/server worker."""
    return multiprocessing.current_process().daemon


def pool_fallback_reason(workers: int) -> str | None:
    """Why ``workers`` child processes cannot be started here (or ``None``).

    Daemonic workers (sweep-pool children, managed worker-set
    processes) may not have children of their own; a REPL/stdin parent
    has no entry point to import, which the fork server does (once, for
    all its forks) just as every ``spawn`` child does.  The worker set then
    runs attempts in-process — bit-identical, just serial — and the
    executor emits a :class:`NestedPoolFallbackWarning` naming the
    reason.
    """
    if workers <= 1:
        return None
    if _in_daemonic_process():
        return (
            "nested process pool requested from a daemonic worker "
            "context (daemonic processes may not have children)"
        )
    if not _spawn_supported():
        return (
            "spawn entry point unavailable (interactive/stdin parent "
            "cannot be re-imported by spawn workers)"
        )
    return None


#: Environment name that carries the entry point to a starting server;
#: set only around ``ensure_running()`` and popped by the server before
#: its first fork, so neither the parent nor any worker keeps it.
_MAIN_TRANSPORT = "_REPRO_FORKSERVER_MAIN"

#: The keys of ``spawn.get_preparation_data()`` the server gets: what a
#: child's ``prepare()`` sets before it imports the entry point, then
#: the entry point, by name (``python -m mod``) or by path (a script).
_MAIN_KEYS = ("sys_path", "sys_argv", "init_main_from_name", "init_main_from_path")

#: Serialises the environment swap in :func:`worker_context`.
_server_start_lock = threading.Lock()


def _server_path() -> str | None:
    """What the fork server needs on ``PYTHONPATH`` to import the package.

    The directory this process imported it from — or ``None`` for an
    installed package: the server finds that by itself, and a site
    directory may not come before the standard library, which
    ``PYTHONPATH`` entries do.
    """
    home = str(Path(__file__).resolve().parents[2])
    sites = [*site.getsitepackages(), site.getusersitepackages()]
    return None if home in map(os.path.realpath, sites) else home


def _server_preload() -> list[str]:
    """What a server started now imports before it forks.

    The module that holds the process main (and imports the whole
    simulator), then every ``repro`` module this process has imported
    so far — a parent that uses the job server or the SoA engine gets
    workers that already hold them, with no list to keep — then the
    server-only module that imports the entry point from what
    :func:`worker_context` left under :data:`_MAIN_TRANSPORT`.  The
    stdlib's own ``"__main__"`` entry is left out: no server up to
    CPython 3.13.0 acts on it, and one that does would import a script
    main by a second route, outside the containment of the last
    module, which imports script and ``-m`` mains alike.
    """
    loaded = sorted(
        name
        for name in tuple(sys.modules)  # another thread may be importing
        if name == "repro" or name.startswith("repro.")
    )
    return ["repro.harness.resilient", *loaded, "repro.harness._server_main"]


def _server_environ() -> dict[str, str]:
    """What ``os.environ`` holds only while the server is being started."""
    from multiprocessing import spawn

    data = spawn.get_preparation_data("ignore")
    swap = {
        _MAIN_TRANSPORT: json.dumps(
            {key: data[key] for key in _MAIN_KEYS if key in data}
        )
    }
    home = _server_path()
    if home is not None:
        swap["PYTHONPATH"] = os.pathsep.join(
            filter(None, (home, os.environ.get("PYTHONPATH")))
        )
    return swap


def worker_context():
    """The multiprocessing context every worker process starts from.

    The stdlib fork server, preloaded with the module that holds the
    process main, the ``repro`` modules the parent has imported and the
    parent's entry point: each is imported once per parent process
    and every worker is a fork of that clean, single-threaded
    server — as immune to the parent's threads as a ``spawn`` child,
    without an interpreter boot, a package import and a replay of the
    entry script per process.  ``spawn`` where the platform has no fork
    server.

    The server is started here, so at the first ``Process.start()`` and
    never at import.  Up to CPython 3.12 it ignores the ``sys.path`` it
    is sent, swallows the preload's ``ImportError`` and never learns the
    entry point (it keeps the keys ``main_path`` / ``sys_path`` of data
    that names them ``init_main_from_*``), which leaves every fork to
    import the package and run the entry script again.  It is therefore
    started with the package's directory on ``PYTHONPATH`` (unless the
    package is installed, and found anyway) and the entry point under
    :data:`_MAIN_TRANSPORT`, which ``repro.harness._server_main``
    removes and imports as ``__mp_main__`` — the call each child makes,
    made once, so a child finds ``__main__`` in place; ``os.environ``
    is as found afterwards.  An entry point that raises there is
    reported on the server's stderr and replayed by each worker as
    before.  A server the embedding program started earlier keeps its
    own preload: it works, only slowly.
    """
    if "forkserver" not in multiprocessing.get_all_start_methods():
        method = "spawn"
    else:
        method = "forkserver"
        from multiprocessing import forkserver

        with _server_start_lock:
            forkserver.set_forkserver_preload(_server_preload())
            swap = _server_environ()
            found = {name: os.environ.get(name) for name in swap}
            os.environ.update(swap)
            try:
                forkserver.ensure_running()  # a no-op once it runs
            finally:
                for name, value in found.items():
                    if value is None:
                        os.environ.pop(name, None)
                    else:
                        os.environ[name] = value
    return multiprocessing.get_context(method)


def _warn_pool_fallback(reason: str) -> None:
    """Tell the caller's caller that its processes became inline work."""
    warnings.warn(
        f"falling back to inline execution: {reason}",
        NestedPoolFallbackWarning,
        stacklevel=3,
    )


def _spawn_supported() -> bool:
    """Whether another process can import the parent's ``__main__``.

    The fork server, or else every child, imports the parent's entry
    point (``multiprocessing.spawn.prepare``); a REPL / stdin /
    ``python -c`` parent has none, and the pool would crash-loop trying
    to import ``<stdin>``.  Fall back to inline execution there instead
    of hanging (results are identical, just serial).
    """
    main = sys.modules.get("__main__")
    if main is None:
        return False
    if getattr(main, "__spec__", None) is not None:
        return True  # python -m whatever: importable by name
    main_file = getattr(main, "__file__", None)
    return main_file is not None and os.path.exists(main_file)


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker count: ``None``/``1`` serial, ``0`` all cores."""
    if workers is None:
        return 1
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError("workers must be >= 0 (0 means all cores)")
    return workers


@dataclass
class ExecutionStats:
    """What one :meth:`ParallelExecutor.run_jobs` call actually did.

    The resilience counters (``retries`` onward) record every recovery
    action taken under a :class:`~repro.harness.resilient.RetryPolicy`,
    so benchbed and the progress printer can report them; without a
    policy the first failure is raised instead.  ``failures_detail``
    holds the :class:`~repro.harness.resilient.JobFailure` objects
    behind the ``failures`` count.
    """

    total: int = 0
    cache_hits: int = 0
    simulated: int = 0
    elapsed_seconds: float = 0.0
    #: Attempt re-executions scheduled after transient errors.
    retries: int = 0
    #: Jobs quarantined as structured failures (see ``failures_detail``).
    failures: int = 0
    #: Attempts killed for exceeding the per-job wall-clock deadline.
    timeouts: int = 0
    #: Worker processes that died (or stopped heartbeating) mid-job.
    worker_crashes: int = 0
    #: Results rejected by structural validation.
    corrupt_results: int = 0
    #: Speculative duplicates launched for stragglers / duplicates that
    #: delivered the winning result.
    speculative: int = 0
    speculative_wins: int = 0
    #: Jobs settled from a resumed sweep journal (completed or failed
    #: in a previous interrupted run; zero duplicate simulations).
    resumed: int = 0
    failures_detail: list = field(default_factory=list)

    def describe(self) -> str:
        """One-line summary for CLI / progress reports."""
        parts = [
            f"{self.total} jobs",
            f"{self.simulated} simulated",
            f"{self.cache_hits} from cache",
        ]
        if self.resumed:
            parts.append(f"{self.resumed} resumed")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.worker_crashes:
            parts.append(f"{self.worker_crashes} worker crashes")
        if self.corrupt_results:
            parts.append(f"{self.corrupt_results} corrupt results")
        if self.speculative:
            parts.append(
                f"{self.speculative} speculative "
                f"({self.speculative_wins} wins)"
            )
        if self.failures:
            parts.append(f"{self.failures} failed")
        return ", ".join(parts)


class ParallelExecutor:
    """Runs simulation jobs over a worker pool with optional caching.

    ``workers``: ``None`` or ``1`` runs in this process, ``0`` uses
    every core, ``N`` uses ``N`` processes.  ``cache`` is a
    :class:`ResultCache` (or ``None`` to always simulate).  ``progress``
    is called as ``(done, total, record)`` after each completed job,
    cache hits included.

    ``policy`` (a :class:`~repro.harness.resilient.RetryPolicy`) makes
    execution fault-tolerant: deadlines, retries with backoff, worker
    crash recovery and speculative straggler re-execution, with
    unrecoverable jobs quarantined as failure records instead of
    exceptions.  ``journal`` (a
    :class:`~repro.harness.resilient.SweepJournal`) logs completed job
    keys and failures, enabling resumption of an interrupted sweep with
    zero duplicate simulations.  Without a policy the first failed job
    raises its own exception type out of :meth:`run_jobs` (a dead
    worker raises :class:`~repro.harness.resilient.WorkerCrashError`).

    ``job_fn``, called as ``job_fn(job, index, attempt)`` with the
    job's position in :meth:`run_jobs`'s list, replaces
    :func:`execute_job` (see :class:`~repro.harness.resilient.ManagedWorkerSet`).

    ``simulations_run`` accumulates the number of actual simulator
    invocations across the executor's lifetime; with a warm cache it
    stays at zero.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache: ResultCache | None = None,
        progress: ProgressCallback | None = None,
        policy=None,
        journal=None,
        job_fn=None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.cache = cache
        self.progress = progress
        self.policy = policy
        self.journal = journal
        self.job_fn = job_fn
        self.simulations_run = 0
        self.last_stats = ExecutionStats()

    # ------------------------------------------------------------------

    def run_configs(
        self, configs: Iterable[SimulationConfig]
    ) -> list[dict]:
        """Run bare configurations (no faults); records in input order."""
        return self.run_jobs([SimJob.of(c) for c in configs])

    def run_jobs(self, jobs: Sequence[SimJob]) -> list[dict]:
        """Run every job; returns one record per job, in input order.

        Cached jobs are served without simulating; jobs settled by a
        resumed journal (completed or quarantined in a prior run) are
        not re-executed; the rest go to the worker set.  Under a
        policy, a job the worker set gave up on contributes a failure
        record (``FAILURE_MARKER`` set) in its slot instead of raising.
        On interruption (KeyboardInterrupt) the cache and journal are
        left consistent: every record already completed is stored and
        journaled before the exception leaves this frame.
        """
        jobs = list(jobs)
        started = time.monotonic()
        total = len(jobs)
        records: list[dict | None] = [None] * total
        done = 0
        stats = ExecutionStats(total=total)
        journal = self.journal

        pending: list[tuple[int, SimJob]] = []
        keys: list[str | None] = [None] * total
        try:
            for index, job in enumerate(jobs):
                if self.cache is None and journal is None:
                    pending.append((index, job))
                    continue
                keys[index] = job_key(job)
                key = keys[index]
                journal_done = (
                    journal is not None and key in journal.completed_keys
                )
                if journal is not None and key in journal.failures:
                    # Replay the quarantine verdict from the interrupted
                    # run instead of re-running a known-poison job.
                    failure = journal.failure_for(key, index)
                    records[index] = failure.record()
                    stats.failures += 1
                    stats.resumed += 1
                    stats.failures_detail.append(failure)
                    done += 1
                    self._report(done, total, records[index])
                    continue
                if self.cache is not None:
                    cached = self.cache.lookup(key)
                    if cached is not None:
                        records[index] = cached
                        stats.cache_hits += 1
                        if journal_done:
                            stats.resumed += 1
                        elif journal is not None:
                            journal.record_ok(key)
                        done += 1
                        self._report(done, total, cached)
                        continue
                pending.append((index, job))

            for index, outcome in self._execute(pending, stats):
                if isinstance(outcome, dict):
                    records[index] = outcome
                    stats.simulated += 1
                    self.simulations_run += 1
                    if self.cache is not None and keys[index] is not None:
                        self.cache.store(keys[index], outcome)
                    if journal is not None and keys[index] is not None:
                        journal.record_ok(keys[index])
                    report = outcome
                else:  # JobFailure from the resilient layer
                    if keys[index] is not None and outcome.key is None:
                        outcome = replace(outcome, key=keys[index])
                    records[index] = outcome.record()
                    stats.failures += 1
                    stats.failures_detail.append(outcome)
                    if journal is not None and keys[index] is not None:
                        journal.record_failure(keys[index], outcome)
                    report = records[index]
                done += 1
                self._report(done, total, report)
        finally:
            stats.elapsed_seconds = time.monotonic() - started
            self.last_stats = stats
            if journal is not None:
                journal.flush()
            finish = getattr(self.progress, "finish", None)
            if finish is not None and done == total:
                finish(stats)
        assert all(r is not None for r in records)
        return records  # type: ignore[return-value]

    # ------------------------------------------------------------------

    def _execute(
        self, pending: list[tuple[int, SimJob]], stats: ExecutionStats
    ) -> Iterable[tuple[int, object]]:
        if not pending:
            return  # a warm pass builds no worker set and imports nothing
        fallback = pool_fallback_reason(self.workers)
        if fallback is not None:
            # The pool cannot be spawned here (daemonic worker context
            # or no re-importable entry point); say so instead of
            # silently serialising — results are identical either way.
            _warn_pool_fallback(fallback)
        from repro.harness.resilient import ManagedWorkerSet

        # The set is sized to the batch, so a lone pending job asks for
        # one worker and the set runs it in-process: no spawn for one
        # simulation, with or without a policy.
        with ManagedWorkerSet(
            self.policy,
            workers=min(self.workers, len(pending)),
            stats=stats,
            on_retry=getattr(self.progress, "note_retry", None),
            job_fn=self.job_fn,
        ) as workers:
            for index, job in pending:
                workers.submit(job, index)
            while workers.outstanding():
                yield from workers.pump()

    def _report(self, done: int, total: int, record: dict) -> None:
        if self.progress is not None:
            self.progress(done, total, record)


class ProgressPrinter:
    """A ready-made progress callback printing ``done/total`` with ETA.

    The ETA is a linear extrapolation from completed jobs — coarse but
    honest for homogeneous sweeps.  Writes to ``stream`` (stderr by
    default) so records on stdout stay machine-readable.

    Failure-aware: under a resilient policy the status line grows
    ``retry``/``failed`` counts as they happen (the executor feeds
    :meth:`note_retry`; failures are recognised by their marker
    records), and :meth:`finish` prints a final ``ok/failed/retried``
    summary instead of only ``done/total``.
    """

    def __init__(self, stream=None, label: str = "sweep") -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self._started: float | None = None
        self.retries = 0
        self.failed = 0

    def note_retry(self, index: int, attempt: int, reason: str) -> None:
        """Executor hook: one attempt of job ``index`` is being retried."""
        self.retries += 1
        print(
            f"[{self.label}] retry job {index} "
            f"(attempt {attempt + 1} failed: {reason})",
            file=self.stream,
            flush=True,
        )

    def __call__(self, done: int, total: int, record: dict) -> None:
        now = time.monotonic()
        if self._started is None:
            self._started = now
        if is_failure_record(record):
            self.failed += 1
        elapsed = now - self._started
        if done and done < total:
            eta = elapsed / done * (total - done)
            tail = f"elapsed {elapsed:6.1f}s eta {eta:6.1f}s"
        else:
            tail = f"elapsed {elapsed:6.1f}s"
        if self.retries:
            tail += f" retry {self.retries}"
        if self.failed:
            tail += f" failed {self.failed}"
        percent = 100.0 * done / total if total else 100.0
        print(
            f"[{self.label}] {done}/{total} ({percent:5.1f}%) {tail}",
            file=self.stream,
            flush=True,
        )

    def finish(self, stats: ExecutionStats) -> None:
        """Executor hook: final summary line.

        Degenerate sweeps get an explicit line instead of a misleading
        ``0 ok, 0 failed, 0 retried``: an empty job list says so, and a
        100%-cached run (no job ever executed) reports the cache
        instead of pretending work happened.  The ``failed``/``retried``
        counters only appear when a failure or retry actually occurred.
        """
        if stats.total == 0:
            print(
                f"[{self.label}] finished: no jobs to run",
                file=self.stream,
                flush=True,
            )
            return
        if (
            stats.simulated == 0
            and stats.failures == 0
            and stats.cache_hits == stats.total
        ):
            resumed = (
                f" ({stats.resumed} resumed)" if stats.resumed else ""
            )
            print(
                f"[{self.label}] finished: all {stats.total} served "
                f"from cache, 0 simulated{resumed}",
                file=self.stream,
                flush=True,
            )
            return
        ok = stats.total - stats.failures
        line = f"[{self.label}] finished: {ok} ok"
        if stats.failures or stats.retries:
            line += f", {stats.failures} failed, {stats.retries} retried"
        print(line, file=self.stream, flush=True)
