"""Tests for the fault-tolerant execution layer (repro.harness.resilient).

The contract under test (docs/resilient-execution.md):

* failure isolation — a job raising ``DrainTimeoutError`` (or any
  unrecoverable error) is quarantined as a structured ``JobFailure``
  record; the remaining jobs of the sweep/campaign complete normally;
* bounded retry — transient failures are retried up to ``max_retries``
  per job, with the counters surfaced on ``ExecutionStats``;
* resume — an interrupted sweep re-invoked with its journal performs
  zero duplicate simulations (journal + cache hits cover all completed
  jobs, journaled failures are replayed);
* interruption safety — ``KeyboardInterrupt`` mid-sweep leaves the
  cache consistent (no ``.tmp`` litter) and the journal flushed.
"""

import errno
import json
import os
import time

import pytest

from repro.core.config import SimulationConfig
from repro.faults.schedule import FaultSchedule
from repro.harness.parallel import (
    FAILURE_MARKER,
    ParallelExecutor,
    ProgressPrinter,
    ResultCache,
    SimJob,
    is_failure_record,
)
from repro.harness.resilient import (
    CorruptResultError,
    JobFailure,
    ManagedWorkerSet,
    RetryPolicy,
    SweepJournal,
    WorkerCrashError,
    validate_record,
)
from repro.harness.sweeps import Sweep

from .chaos import ChaosConfig, ChaosRule

BASE = {
    "width": 3,
    "height": 3,
    "warmup_packets": 10,
    "measure_packets": 60,
    "injection_rate": 0.08,
}


def small_config(**overrides) -> SimulationConfig:
    params = dict(BASE)
    params.update(overrides)
    return SimulationConfig(**params)


def small_jobs(seeds=(1, 2, 3)) -> list[SimJob]:
    return [SimJob.of(small_config(seed=seed)) for seed in seeds]


def drain_timeout_config(**overrides) -> SimulationConfig:
    """Deterministically raises DrainTimeoutError (fault-free network,
    a zero no-progress window: a flit crossing a wire outlasts it while
    its packet is outstanding)."""
    params = {
        "width": 3,
        "height": 3,
        "injection_rate": 0.1,
        "warmup_packets": 0,
        "measure_packets": 20,
        "drain_timeout": 0,
        "seed": 1,
    }
    params.update(overrides)
    return SimulationConfig(**params)


FAST = RetryPolicy(backoff_base=0.0)


class TestFailureIsolation:
    def test_drain_timeout_quarantined_not_raised(self):
        jobs = [
            SimJob.of(small_config(seed=1)),
            SimJob.of(drain_timeout_config()),
            SimJob.of(small_config(seed=2)),
        ]
        executor = ParallelExecutor(policy=FAST)
        records = executor.run_jobs(jobs)
        baseline = ParallelExecutor().run_jobs(
            [jobs[0], jobs[2]]
        )
        assert records[0] == baseline[0]
        assert records[2] == baseline[1]
        assert is_failure_record(records[1])
        ok = [r for r in records if not is_failure_record(r)]
        failed = [JobFailure.from_record(r) for r in records if is_failure_record(r)]
        assert len(ok) == 2 and len(failed) == 1
        failure = failed[0]
        assert failure.kind == "fatal"
        assert failure.error_type == "DrainTimeoutError"
        assert failure.attempts == 1  # fatal errors are never retried
        stats = executor.last_stats
        assert stats.failures == 1
        assert stats.retries == 0
        assert stats.failures_detail[0].error_type == "DrainTimeoutError"

    def test_drain_timeout_does_not_abort_campaign(self):
        """The acceptance case: one poisoned job in a multi-job campaign."""
        schedule = FaultSchedule()
        jobs = [
            SimJob.of(config, schedule=schedule)
            for config in (
                small_config(seed=1),
                drain_timeout_config(),
                small_config(seed=2),
            )
        ]
        executor = ParallelExecutor(policy=FAST)
        records = executor.run_jobs(jobs)
        assert len(records) == 3
        ok = [r for r in records if not is_failure_record(r)]
        failed = [JobFailure.from_record(r) for r in records if is_failure_record(r)]
        assert len(ok) == 2
        assert len(failed) == 1
        assert is_failure_record(records[1])
        assert failed[0].error_type == "DrainTimeoutError"
        stats = executor.last_stats
        assert stats.failures == 1
        assert stats.failures_detail[0].error_type == "DrainTimeoutError"
        assert "DrainTimeoutError" in failed[0].describe()
        assert "3 jobs" in stats.describe() and "1 failed" in stats.describe()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_without_policy_drain_timeout_still_raises(self, workers):
        """In-process or from a worker process, the parent sees the
        original type (and its census, which a plain pickle would lose)."""
        from repro.core.simulator import DrainTimeoutError

        jobs = [SimJob.of(drain_timeout_config(seed=s)) for s in (1, 2)]
        with pytest.raises(DrainTimeoutError) as excinfo:
            ParallelExecutor(workers=workers).run_jobs(jobs)
        assert excinfo.value.census.describe() in str(excinfo.value)


class TestRetries:
    def test_transient_failure_retried_to_identical_record(self):
        jobs = small_jobs()
        baseline = ParallelExecutor().run_jobs(jobs)
        chaos = ChaosConfig(
            rules=(ChaosRule(kind="transient", indices=(1,), attempts=(0,)),)
        )
        executor = ParallelExecutor(policy=FAST, job_fn=chaos)
        records = executor.run_jobs(jobs)
        assert records == baseline
        assert executor.last_stats.retries == 1
        assert executor.last_stats.failures == 0

    def test_crash_loop_quarantined_after_max_retries(self):
        chaos = ChaosConfig(
            rules=(ChaosRule(kind="crash", indices=(0,), attempts=None),)
        )
        policy = RetryPolicy(backoff_base=0.0, max_retries=2)
        executor = ParallelExecutor(policy=policy, job_fn=chaos)
        (record,) = executor.run_jobs(small_jobs(seeds=(1,)))
        assert is_failure_record(record)
        assert record["kind"] == "retries-exhausted"
        assert record["attempts"] == 3  # initial + 2 retries
        assert executor.last_stats.worker_crashes == 3
        assert executor.last_stats.retries == 2

    def test_corrupt_result_detected_and_retried(self):
        jobs = small_jobs()
        baseline = ParallelExecutor().run_jobs(jobs)
        chaos = ChaosConfig(
            rules=(ChaosRule(kind="corrupt", indices=(0, 2), attempts=(0,)),)
        )
        executor = ParallelExecutor(policy=FAST, job_fn=chaos)
        records = executor.run_jobs(jobs)
        assert records == baseline
        assert executor.last_stats.corrupt_results == 2

    def test_backoff_schedule_is_exponential(self):
        policy = RetryPolicy(backoff_base=0.1)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert RetryPolicy(backoff_base=0.0).backoff(5) == 0.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("job_timeout", 0),
            ("job_timeout", -5.0),
            ("max_retries", -1),
            ("heartbeat_interval", 0),
            ("heartbeat_timeout", -1.0),
        ],
    )
    def test_an_out_of_range_supervision_value_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            RetryPolicy(**{field: value})


class TestValidation:
    def test_valid_record_passes(self):
        (record,) = ParallelExecutor().run_jobs(small_jobs(seeds=(1,)))
        validate_record(record)  # does not raise

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.pop("router"),
            lambda r: r.pop("cycles"),
            lambda r: r.__setitem__("average_latency", -1.0),
            lambda r: r.__setitem__("throughput", float("nan")),
            lambda r: r.__setitem__("average_latency", "fast"),
            lambda r: r.__setitem__("cycles", 0),
        ],
    )
    def test_tampered_record_rejected(self, mutate):
        (record,) = ParallelExecutor().run_jobs(small_jobs(seeds=(1,)))
        tampered = dict(record)
        mutate(tampered)
        with pytest.raises(CorruptResultError):
            validate_record(tampered)

    def test_non_dict_rejected(self):
        with pytest.raises(CorruptResultError):
            validate_record([1, 2, 3])


class TestSweepJournal:
    def test_roundtrip_ok_and_failure(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SweepJournal(path)
        journal.record_ok("aaa")
        journal.record_failure(
            "bbb",
            JobFailure(
                index=1,
                kind="fatal",
                error_type="DrainTimeoutError",
                message="no progress",
                attempts=1,
            ),
        )
        journal.close()
        resumed = SweepJournal(path, resume=True)
        assert resumed.completed_keys == {"aaa"}
        assert set(resumed.failures) == {"bbb"}
        failure = resumed.failure_for("bbb", index=7)
        assert failure.index == 7  # replayed at the current run's slot
        assert failure.error_type == "DrainTimeoutError"
        assert failure.key == "bbb"

    def test_ok_supersedes_earlier_failure(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SweepJournal(path)
        journal.record_failure(
            "k",
            JobFailure(
                index=0, kind="retries-exhausted", error_type="X",
                message="m", attempts=3,
            ),
        )
        journal.record_ok("k")
        journal.close()
        resumed = SweepJournal(path, resume=True)
        assert resumed.completed_keys == {"k"}
        assert resumed.failures == {}

    def test_torn_at_every_byte_resumes_and_appends(self, tmp_path):
        """A sweep killed mid-write leaves any prefix of its journal; the
        next resume's append must not land on the torn line."""
        path = tmp_path / "journal.jsonl"
        journal = SweepJournal(path)
        for key in ("aaa", "bbb", "ccc"):
            journal.record_ok(key)
        journal.close()
        whole = path.read_bytes()
        for offset in range(len(whole) + 1):
            path.write_bytes(whole[:offset])
            lines = whole[:offset].decode().splitlines(keepends=True)
            done = {json.loads(line)["key"] for line in lines if line.endswith("\n")}
            resumed = SweepJournal(path, resume=True)
            resumed.record_ok("new")
            resumed.close()
            again = SweepJournal(path, resume=True)
            again.close()
            assert again.completed_keys == done | {"new"}, offset

    def test_fresh_open_truncates(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SweepJournal(path)
        journal.record_ok("aaa")
        journal.close()
        fresh = SweepJournal(path, resume=False)
        fresh.close()
        assert SweepJournal(path, resume=True).completed_keys == set()


class TestResume:
    def test_interrupted_sweep_resumes_with_zero_duplicates(self, tmp_path):
        """The acceptance case: interrupt mid-run, resume, count sims."""
        sweep = Sweep(
            axes={"injection_rate": [0.05, 0.08], "seed": [1, 2]}, base=BASE
        )
        cache = ResultCache(tmp_path / "cache")
        journal = SweepJournal(tmp_path / "journal.jsonl")
        interrupted = ParallelExecutor(
            cache=cache, journal=journal, policy=FAST
        )

        bomb = {"after": 2}

        def interrupting_progress(done, total, record):
            if done >= bomb["after"]:
                raise KeyboardInterrupt

        interrupted.progress = interrupting_progress
        with pytest.raises(KeyboardInterrupt):
            sweep.run(executor=interrupted)
        journal.close()
        assert interrupted.simulations_run == 2
        assert len(journal.completed_keys) == 2

        resumed_journal = SweepJournal(tmp_path / "journal.jsonl", resume=True)
        resumed = ParallelExecutor(
            cache=ResultCache(tmp_path / "cache"),
            journal=resumed_journal,
            policy=FAST,
        )
        records = sweep.run(executor=resumed)
        # Zero duplicate simulations: only the two jobs the interrupt
        # cancelled are simulated, the completed ones come from the
        # journal + cache.
        assert resumed.simulations_run == 2
        assert resumed.last_stats.resumed == 2
        assert resumed.last_stats.cache_hits == 2
        assert records == Sweep(axes=sweep.axes, base=BASE).run()

    def test_journaled_failure_replayed_without_rerun(self, tmp_path):
        jobs = [
            SimJob.of(small_config(seed=1)),
            SimJob.of(drain_timeout_config()),
        ]
        journal = SweepJournal(tmp_path / "journal.jsonl")
        cache = ResultCache(tmp_path / "cache")
        first = ParallelExecutor(cache=cache, journal=journal, policy=FAST)
        first_records = first.run_jobs(jobs)
        journal.close()
        assert first.simulations_run == 1  # failed job produced no record

        resumed_journal = SweepJournal(tmp_path / "journal.jsonl", resume=True)
        resumed = ParallelExecutor(
            cache=ResultCache(tmp_path / "cache"),
            journal=resumed_journal,
            policy=FAST,
        )
        records = resumed.run_jobs(jobs)
        assert resumed.simulations_run == 0  # poison job NOT re-run
        assert resumed.last_stats.resumed == 2
        assert is_failure_record(records[1])
        assert records[0] == first_records[0]
        assert records[1]["error_type"] == first_records[1]["error_type"]


class _RefusingHandle:
    """A journal handle whose second write lands half its line and then
    fails as a full disk fails it."""

    def __init__(self, handle) -> None:
        self.handle = handle
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes == 2:
            self.handle.write(text[: len(text) // 2])
            self.handle.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.handle.write(text)

    def __getattr__(self, name):
        return getattr(self.handle, name)


class TestJournalOnARefusingDisk:
    def test_a_torn_append_stops_the_sweep_and_resume_finishes_it(
        self, tmp_path
    ):
        """The journal's own write failing is not absorbed like a cache
        store: the sweep stops with the disk's error, the records it had
        already cached stay, and a resume cuts the torn line and
        simulates only the job that never ran."""
        jobs = small_jobs()
        path = tmp_path / "journal.jsonl"
        cache_dir = tmp_path / "cache"
        journal = SweepJournal(path)
        journal._handle = _RefusingHandle(journal._handle)
        executor = ParallelExecutor(
            cache=ResultCache(cache_dir), journal=journal, policy=RetryPolicy()
        )
        with pytest.raises(OSError) as excinfo:
            executor.run_jobs(jobs)
        journal.close()
        assert excinfo.value.errno == errno.ENOSPC
        assert len(list(cache_dir.glob("*.json"))) == 2
        assert not path.read_bytes().endswith(b"\n")

        resumed_journal = SweepJournal(path, resume=True)
        assert len(resumed_journal.completed_keys) == 1
        assert path.read_bytes().endswith(b"\n")
        resumed = ParallelExecutor(
            cache=ResultCache(cache_dir),
            journal=resumed_journal,
            policy=RetryPolicy(),
        )
        records = resumed.run_jobs(jobs)
        resumed_journal.close()
        assert resumed.simulations_run == 1
        assert resumed.last_stats.cache_hits == 2
        assert records == ParallelExecutor().run_jobs(jobs)


class TestInterruptConsistency:
    def test_keyboard_interrupt_leaves_cache_consistent(self, tmp_path):
        """Satellite: no ``.tmp`` litter, journal flushed, stats set."""
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        journal = SweepJournal(tmp_path / "journal.jsonl")
        executor = ParallelExecutor(cache=cache, journal=journal, policy=FAST)

        def interrupt_late(done, total, record):
            if done >= 2:
                raise KeyboardInterrupt

        executor.progress = interrupt_late
        with pytest.raises(KeyboardInterrupt):
            executor.run_jobs(small_jobs())
        assert list(cache_dir.glob("*.tmp")) == []
        assert len(list(cache_dir.glob("*.json"))) == 2
        # The journal was flushed before the exception escaped: re-read
        # it from disk, bypassing the in-memory state.
        lines = [
            json.loads(line)
            for line in (tmp_path / "journal.jsonl").read_text().splitlines()
        ]
        assert len(lines) == 2
        assert all(entry["event"] == "ok" for entry in lines)
        assert executor.last_stats.simulated == 2


class TestProgressReporting:
    def test_progress_printer_reports_retries_and_failures(self, capsys):
        import sys

        chaos = ChaosConfig(
            rules=(
                ChaosRule(kind="transient", indices=(0,), attempts=(0,)),
                ChaosRule(kind="crash", indices=(2,), attempts=None),
            )
        )
        policy = RetryPolicy(backoff_base=0.0, max_retries=1)
        printer = ProgressPrinter(stream=sys.stderr)
        executor = ParallelExecutor(
            policy=policy, job_fn=chaos, progress=printer
        )
        executor.run_jobs(small_jobs())
        err = capsys.readouterr().err
        assert "retry job 0" in err
        assert "failed 1" in err
        assert "finished: 2 ok, 1 failed, 2 retried" in err
        assert printer.retries == 2 and printer.failed == 1

    def test_failure_records_reach_progress_callback(self):
        seen = []
        chaos = ChaosConfig(
            rules=(ChaosRule(kind="crash", indices=(0,), attempts=None),)
        )
        executor = ParallelExecutor(
            policy=RetryPolicy(backoff_base=0.0, max_retries=0),
            job_fn=chaos,
            progress=lambda done, total, record: seen.append(
                record.get(FAILURE_MARKER, False)
            ),
        )
        executor.run_jobs(small_jobs(seeds=(1, 2)))
        assert sorted(seen) == [False, True]


class TestPooledSupervision:
    """Real process-pool paths: crash recovery and deadline kills."""

    def test_pooled_worker_crash_recovered(self):
        jobs = small_jobs()
        baseline = ParallelExecutor().run_jobs(jobs)
        chaos = ChaosConfig(
            rules=(ChaosRule(kind="crash", indices=(1,), attempts=(0,)),)
        )
        policy = RetryPolicy(backoff_base=0.0, max_retries=2)
        executor = ParallelExecutor(workers=2, policy=policy, job_fn=chaos)
        records = executor.run_jobs(jobs)
        assert records == baseline
        assert executor.last_stats.worker_crashes == 1
        assert executor.last_stats.retries == 1
        assert executor.last_stats.failures == 0

    def test_pooled_hang_killed_by_deadline(self):
        jobs = small_jobs()
        baseline = ParallelExecutor().run_jobs(jobs)
        chaos = ChaosConfig(
            rules=(
                ChaosRule(
                    kind="hang", indices=(0,), attempts=(0,), seconds=30.0
                ),
            )
        )
        policy = RetryPolicy(
            job_timeout=1.5, backoff_base=0.0, max_retries=2
        )
        executor = ParallelExecutor(workers=2, policy=policy, job_fn=chaos)
        records = executor.run_jobs(jobs)
        assert records == baseline
        assert executor.last_stats.timeouts == 1
        assert executor.last_stats.failures == 0

    def test_pooled_without_policy_unchanged(self):
        jobs = small_jobs()
        assert ParallelExecutor(workers=2).run_jobs(
            jobs
        ) == ParallelExecutor().run_jobs(jobs)


def echo_seed(job: SimJob, index: int, attempt: int) -> dict:
    """Trivial top-level job function (picklable for spawn workers)."""
    return {"seed": job.config.seed}


def drain(pool: ManagedWorkerSet, deadline: float = 60.0) -> dict[int, object]:
    """Pump until nothing is outstanding; bounded, so a hang fails."""
    settled: dict[int, object] = {}
    give_up = time.monotonic() + deadline
    while pool.outstanding():
        assert time.monotonic() < give_up, "worker set did not settle in time"
        settled.update(pool.pump())
    return settled


def raise_violation(job: SimJob, index: int, attempt: int) -> dict:
    """Every job breaks an invariant.  (Imported here: a script importing
    this module must not preload the audit package,
    tests/test_worker_context.py.)"""
    from repro.audit import InvariantViolation

    raise InvariantViolation("credit", 7, f"fixture seed {job.config.seed}")


class TestWorkerSet:
    """The engine itself, below the executor and the broker."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_settled_jobs_are_forgotten(self, workers):
        """A long-lived set keeps nothing per settled job (server leak)."""
        policy = RetryPolicy(validate=False, speculative=True)
        n = 30
        with ManagedWorkerSet(policy, workers=workers, job_fn=echo_seed) as pool:
            assert len(pool.worker_liveness()) == (workers if workers > 1 else 0)
            indices = [pool.submit(small_jobs(seeds=(s,))[0]) for s in range(n)]
            settled = drain(pool)
            assert settled == {i: {"seed": s} for s, i in enumerate(indices)}
            assert pool.outstanding() == 0
            assert pool.jobs == {} and pool.inflight == {}
            assert pool.launches == {}
            assert not pool.ready and not pool.delayed and not pool.out
            assert len(pool.durations) <= min(n, pool.durations.maxlen)
            # Indices stay unique after the early ones were forgotten.
            assert pool.submit(small_jobs(seeds=(99,))[0]) == n

    def test_a_freed_worker_is_relaunched_before_its_result_is_returned(self):
        """Whenever a pass hands out a result while jobs are still
        ready, every worker is busy: the one that reported got its next
        job first and runs it while the caller files the record."""
        hand_outs = 0
        with ManagedWorkerSet(workers=2, job_fn=echo_seed) as pool:
            for seed in range(12):
                pool.submit(small_jobs(seeds=(seed,))[0])
            give_up = time.monotonic() + 60.0
            while pool.outstanding():
                assert time.monotonic() < give_up
                if pool.pump() and pool.ready:
                    hand_outs += 1
                    assert all(h.running for h in pool.workers.values())
        assert hand_outs, "no pass returned a result with jobs still ready"

    def test_a_worker_dead_before_its_first_job_is_replaced(self):
        """A broken pipe at launch drops that worker; the assign loop
        used to offer it the same job for ever (a worker that dies at
        boot while the next one is still being started)."""
        with ManagedWorkerSet(workers=2, job_fn=echo_seed) as pool:
            victim = next(iter(pool.workers.values()))
            victim.process.kill()
            victim.process.join(timeout=10.0)
            assert not victim.process.is_alive()
            indices = [pool.submit(job) for job in small_jobs(seeds=(1, 2, 3, 4))]
            assert drain(pool) == {i: {"seed": i + 1} for i in indices}
            assert victim.worker_id not in pool.workers
            assert len(pool.workers) == 2

    def test_unsupervised_dead_worker_raises_and_reaps(self):
        """policy=None: a killed worker is WorkerCrashError in bounded
        time with no child left alive (a spawn Pool hangs here)."""
        chaos = ChaosConfig((ChaosRule("crash", indices=(1,)),))
        pool = ManagedWorkerSet(policy=None, workers=2, job_fn=chaos)
        processes = [h.process for h in pool.workers.values()]
        assert len(processes) == 2
        for job in small_jobs():
            pool.submit(job)
        with pytest.raises(WorkerCrashError, match="exitcode 87"):
            drain(pool)
        assert not any(p.is_alive() for p in processes)
        assert pool.workers == {} and pool.pump() == []

    def test_an_invariant_violation_is_fatal(self):
        """Deterministic like a stall: quarantined on its first attempt."""
        with ManagedWorkerSet(FAST, job_fn=raise_violation) as pool:
            for job in small_jobs(seeds=(1, 2)):
                pool.submit(job)
            failures = drain(pool).values()
        assert [(f.error_type, f.kind, f.attempts) for f in failures] == [
            ("InvariantViolation", "fatal", 1),
        ] * 2
        assert pool.stats.retries == 0

    def test_unpicklable_error_arrives_as_repr(self):
        with ManagedWorkerSet(None, workers=2, job_fn=raise_unpicklable) as pool:
            for job in small_jobs(seeds=(1, 2)):
                pool.submit(job)
            with pytest.raises(RuntimeError, match=r"LocalError\('seed [12]'\)"):
                drain(pool)


def raise_unpicklable(job: SimJob, index: int, attempt: int) -> dict:
    class LocalError(Exception):  # a local class cannot cross a pipe
        pass

    raise LocalError(f"seed {job.config.seed}")
