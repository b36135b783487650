"""Chaos-harness tests: fault injection is deterministic, and sweeps
run under chaos converge bit-identical to fault-free runs.

The faults are a job function (tests/chaos.py) the engine calls with
each attempt's ``(index, attempt)``.  The pooled cells here spawn real
worker processes and inject real faults (``os._exit``, sleeps,
``SIGSTOP``); they are kept small (3x3 mesh, short runs) so the whole
file stays in CI-smoke territory, and they fail if the pool falls back
to inline attempts.  The full kind x execution mode grid is
``TestChaosGrid``.
"""

import multiprocessing
import signal

import pytest

from repro.core.config import SimulationConfig
from repro.harness.parallel import ParallelExecutor, SimJob, is_failure_record
from repro.harness.resilient import (
    CorruptResultError,
    ManagedWorkerSet,
    RetryPolicy,
    WorkerCrashError,
    split_failures,
    validate_record,
)

from .chaos import CRASH_EXIT_CODE, ChaosConfig, ChaosRule, ChaosTransientError
from .test_resilient import drain

BASE = {
    "width": 3,
    "height": 3,
    "warmup_packets": 10,
    "measure_packets": 60,
    "injection_rate": 0.08,
}


def jobs_for(seeds=(1, 2, 3)):
    return [
        SimJob.of(SimulationConfig(**BASE, seed=seed)) for seed in seeds
    ]


FAST = RetryPolicy(backoff_base=0.0, max_retries=3)

#: A pooled cell must run its attempts in worker processes.
STRICT_POOL = pytest.mark.filterwarnings(
    "error::repro.harness.parallel.NestedPoolFallbackWarning"
)


class TestChaosRules:
    def test_rule_matching_by_index_and_attempt(self):
        config = ChaosConfig(
            rules=(
                ChaosRule(kind="transient", indices=(1,), attempts=(0,)),
                ChaosRule(kind="crash", indices=(2,), attempts=None),
            )
        )
        assert config.rule_for(0, 0) is None
        assert config.rule_for(1, 0).kind == "transient"
        assert config.rule_for(1, 1) is None  # attempt 1 not targeted
        assert config.rule_for(2, 0).kind == "crash"
        assert config.rule_for(2, 5).kind == "crash"  # poison: every attempt

    def test_first_matching_rule_wins(self):
        config = ChaosConfig(
            rules=(
                ChaosRule(kind="transient", indices=(0,), attempts=(0,)),
                ChaosRule(kind="crash", indices=None, attempts=(0,)),
            )
        )
        assert config.rule_for(0, 0).kind == "transient"
        assert config.rule_for(1, 0).kind == "crash"

    def test_indices_none_matches_all(self):
        config = ChaosConfig(
            rules=(ChaosRule(kind="transient", indices=None, attempts=(0,)),)
        )
        for index in range(5):
            assert config.rule_for(index, 0) is not None


class TestChaosExecuteSerial:
    """Serial stand-ins: faults surface as typed exceptions."""

    def job(self):
        return jobs_for(seeds=(1,))[0]

    def test_clean_execution_matches_direct_run(self):
        direct = ParallelExecutor().run_jobs([self.job()])[0]
        chaotic = ChaosConfig(rules=())(self.job(), 0, 0)
        assert chaotic == direct

    def test_transient_raises_chaos_error(self):
        chaos = ChaosConfig(
            rules=(ChaosRule(kind="transient", indices=(0,), attempts=(0,)),)
        )
        with pytest.raises(ChaosTransientError):
            chaos(self.job(), 0, 0)
        # Attempt 1 is clean — the fault is injected exactly once.
        record = chaos(self.job(), 0, 1)
        validate_record(record)

    def test_crash_raises_worker_crash_standin_serially(self):
        from repro.harness.resilient import WorkerCrashError

        chaos = ChaosConfig(
            rules=(ChaosRule(kind="crash", indices=(0,), attempts=(0,)),)
        )
        with pytest.raises(WorkerCrashError):
            chaos(self.job(), 0, 0)

    def test_hang_raises_timeout_standin_serially(self):
        from repro.harness.resilient import JobTimeoutError

        chaos = ChaosConfig(
            rules=(ChaosRule(kind="hang", indices=(0,), attempts=(0,)),)
        )
        with pytest.raises(JobTimeoutError):
            chaos(self.job(), 0, 0)

    def test_corrupt_tampers_named_fields(self):
        chaos = ChaosConfig(
            rules=(
                ChaosRule(
                    kind="corrupt",
                    indices=(0,),
                    attempts=(0,),
                    fields=("average_latency",),
                ),
            )
        )
        record = chaos(self.job(), 0, 0)
        with pytest.raises(CorruptResultError):
            validate_record(record)

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE == 87


class TestChaosConvergence:
    """The headline property: chaos-ridden sweeps converge bit-identical."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return ParallelExecutor().run_jobs(jobs_for())

    def test_serial_mixed_chaos_converges(self, baseline):
        chaos = ChaosConfig(
            rules=(
                ChaosRule(kind="transient", indices=(0,), attempts=(0,)),
                ChaosRule(kind="crash", indices=(1,), attempts=(0,)),
                ChaosRule(
                    kind="corrupt",
                    indices=(2,),
                    attempts=(0,),
                    fields=("average_latency",),
                ),
            )
        )
        executor = ParallelExecutor(policy=FAST, job_fn=chaos)
        assert executor.run_jobs(jobs_for()) == baseline
        stats = executor.last_stats
        assert stats.retries == 3
        assert stats.failures == 0
        assert stats.worker_crashes == 1
        assert stats.corrupt_results == 1

    @STRICT_POOL
    def test_pooled_mixed_chaos_converges(self, baseline):
        chaos = ChaosConfig(
            rules=(
                ChaosRule(kind="crash", indices=(0,), attempts=(0,)),
                ChaosRule(kind="transient", indices=(2,), attempts=(0,)),
            )
        )
        policy = RetryPolicy(
            backoff_base=0.0,
            max_retries=3,
            heartbeat_interval=0.2,
            heartbeat_timeout=10.0,
        )
        executor = ParallelExecutor(workers=2, policy=policy, job_fn=chaos)
        assert executor.run_jobs(jobs_for()) == baseline
        assert executor.last_stats.failures == 0
        assert executor.last_stats.retries == 2

    def test_poison_job_quarantined_survivors_identical(self, baseline):
        chaos = ChaosConfig(
            rules=(ChaosRule(kind="crash", indices=(1,), attempts=None),)
        )
        policy = RetryPolicy(backoff_base=0.0, max_retries=2)
        executor = ParallelExecutor(policy=policy, job_fn=chaos)
        records = executor.run_jobs(jobs_for())
        assert records[0] == baseline[0]
        assert records[2] == baseline[2]
        assert is_failure_record(records[1])
        assert records[1]["kind"] == "retries-exhausted"


class TestChaosGrid:
    """Every fault kind x execution mode over one nine-job sweep.

    A supervised cell strikes the first attempt of three jobs and must
    converge to the fault-free records; a poison cell crashes job 1 on
    every attempt and must quarantine exactly that job; an unsupervised
    cell (``policy=None``) must raise the injected fault as its type, in
    bounded time, and leave no worker process behind.  A frozen worker,
    outside the grid, is caught by its missing heartbeat alone.
    """

    CELLS = [
        *(
            pytest.param(
                f"{mode}/{kind}", marks=[STRICT_POOL] if mode == "pooled" else []
            )
            for mode in ("serial", "pooled")
            for kind in ("crash", "hang", "transient", "corrupt", "poison")
        ),
        *(f"unsupervised/{kind}" for kind in ("crash", "transient", "clean")),
    ]
    POLICY = RetryPolicy(
        job_timeout=1.0,
        max_retries=3,
        backoff_base=0.0,
        heartbeat_interval=0.2,
        heartbeat_timeout=10.0,
    )

    @pytest.fixture(scope="class")
    def sweep(self):
        jobs = [
            SimJob.of(SimulationConfig(**{**BASE, "injection_rate": rate}, seed=seed))
            for rate in (0.05, 0.10, 0.20)
            for seed in (1, 2, 3)
        ]
        return jobs, ParallelExecutor().run_jobs(jobs)

    @pytest.mark.parametrize("cell", CELLS)
    def test_cell(self, sweep, cell):
        jobs, baseline = sweep
        mode, kind = cell.split("/")
        if kind == "clean":
            chaos = None
        elif kind == "poison":
            chaos = ChaosConfig((ChaosRule("crash", indices=(1,), attempts=None),))
        else:
            chaos = ChaosConfig((ChaosRule(kind, indices=(0, 2, 4), seconds=20.0),))
        if mode == "unsupervised":
            self.check_unsupervised(jobs, baseline, chaos)
            return
        executor = ParallelExecutor(
            workers=2 if mode == "pooled" else None, policy=self.POLICY, job_fn=chaos
        )
        records = executor.run_jobs(jobs)
        if kind == "poison":
            _, failed = split_failures(records)
            assert [(f.index, f.kind) for f in failed] == [(1, "retries-exhausted")]
            records[1] = baseline[1]  # the survivors are what is compared
        assert records == baseline
        assert executor.last_stats.retries >= 3

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="no SIGSTOP")
    @STRICT_POOL
    def test_frozen_worker_caught_by_missing_heartbeat(self, sweep):
        """A stopped worker is alive and silent; with no deadline, only
        the heartbeat check can kill it and retry its job."""
        jobs, baseline = sweep
        policy = RetryPolicy(
            max_retries=3,
            backoff_base=0.0,
            heartbeat_interval=0.1,
            heartbeat_timeout=1.0,
        )
        freeze = ChaosConfig((ChaosRule("freeze", indices=(0,)),))
        executor = ParallelExecutor(workers=2, policy=policy, job_fn=freeze)
        assert executor.run_jobs(jobs) == baseline
        assert executor.last_stats.worker_crashes == 1
        assert executor.last_stats.retries == 1

    @staticmethod
    def check_unsupervised(jobs, baseline, chaos):
        before = set(multiprocessing.active_children())
        pool = ManagedWorkerSet(None, workers=2, job_fn=chaos)
        for job in jobs:
            pool.submit(job)
        if chaos is None:
            with pool:
                records = drain(pool)
            assert [records[index] for index in range(len(jobs))] == baseline
        else:
            kind = chaos.rules[0].kind
            # No ``with``: the raise has to reap the workers by itself.
            with pytest.raises(
                WorkerCrashError if kind == "crash" else ChaosTransientError
            ):
                drain(pool)
        assert set(multiprocessing.active_children()) <= before
