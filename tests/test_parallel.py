"""Tests for the parallel executor and its result cache.

The contract under test (docs/parallel-execution.md):

* parallel execution returns record-for-record the same output as
  serial execution, in the same order;
* a warm cache serves a repeated run with zero new simulations;
* cache keys are stable for equal jobs and sensitive to any
  simulation-relevant difference (config fields, faults).
"""

import io
import json
import os
import random
import sys
import types
from pathlib import Path

import pytest

from repro.core.config import RouterConfig, SimulationConfig
from repro.core.simulator import run_simulation
from repro.core.types import NodeId
from repro.faults.injector import random_faults
from repro.harness.export import result_record
from repro.harness import parallel as parallel_module
from repro.harness.parallel import (
    CACHE_VERSION,
    ExecutionStats,
    NestedPoolFallbackWarning,
    ParallelExecutor,
    ProgressPrinter,
    ResultCache,
    SimJob,
    _spawn_supported,
    execute_job,
    job_key,
    pool_fallback_reason,
    resolve_workers,
)
from repro.harness.resilient import RetryPolicy
from repro.harness.sweeps import Sweep

BASE = {
    "width": 3,
    "height": 3,
    "warmup_packets": 10,
    "measure_packets": 60,
    "injection_rate": 0.08,
}

SWEEP_AXES = {"router": ["generic", "roco"], "seed": [1, 2]}


#: Every execution test runs on both values of the policy axis: one
#: engine serves both, and "no policy" must stay a value of it.
POLICIES = pytest.mark.parametrize(
    "policy", [None, RetryPolicy(backoff_base=0.0)], ids=["unsupervised", "policy"]
)


def small_config(**overrides) -> SimulationConfig:
    params = dict(BASE)
    params.update(overrides)
    return SimulationConfig(**params)


class TestSerialParallelEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        """Direct simulation, no executor involved."""
        sweep = Sweep(axes=SWEEP_AXES, base=BASE)
        return [result_record(run_simulation(c)) for c in sweep.configurations()]

    @POLICIES
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_records_identical_to_direct_runs(
        self, reference, workers, policy
    ):
        """The tentpole proof: in-process and two worker processes, with
        and without a policy, are bit-identical to direct simulation."""
        executor = ParallelExecutor(workers=workers, policy=policy)
        assert Sweep(axes=SWEEP_AXES, base=BASE).run(executor=executor) == reference
        assert executor.last_stats.simulated == len(reference)
        assert executor.last_stats.retries == 0

    @POLICIES
    @pytest.mark.parametrize("workers", [1, 2])
    def test_executor_preserves_job_order(self, workers, policy):
        configs = [small_config(seed=s) for s in (5, 3, 9)]
        executor = ParallelExecutor(workers=workers, policy=policy)
        assert [r["seed"] for r in executor.run_configs(configs)] == [5, 3, 9]

    def test_execute_job_matches_direct_simulation(self):
        config = small_config(seed=4)
        assert execute_job(SimJob.of(config)) == result_record(
            run_simulation(small_config(seed=4))
        )


class TestResultCache:
    def test_repeated_run_simulates_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = ParallelExecutor(cache=cache)
        sweep = Sweep(axes=SWEEP_AXES, base=BASE)
        first = sweep.run(executor=executor)
        assert executor.simulations_run == sweep.size
        assert cache.hits == 0 and cache.stores == sweep.size

        second = sweep.run(executor=executor)
        assert executor.simulations_run == sweep.size  # zero new simulations
        assert cache.hits == sweep.size
        assert executor.last_stats.simulated == 0
        assert executor.last_stats.cache_hits == sweep.size
        assert second == first

    def test_cache_shared_across_executors(self, tmp_path):
        config = small_config()
        ParallelExecutor(cache=ResultCache(tmp_path)).run_configs([config])
        fresh = ParallelExecutor(cache=ResultCache(tmp_path))
        records = fresh.run_configs([small_config()])
        assert fresh.simulations_run == 0
        assert records == [result_record(run_simulation(small_config()))]

    def test_cached_record_equals_fresh_record(self, tmp_path):
        """A round-trip through JSON does not perturb any field."""
        cache = ResultCache(tmp_path)
        executor = ParallelExecutor(cache=cache)
        (first,) = executor.run_configs([small_config()])
        (cached,) = executor.run_configs([small_config()])
        assert cached == first

    def test_partial_cache_only_simulates_new_points(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = ParallelExecutor(cache=cache)
        executor.run_configs([small_config(seed=1)])
        executor.run_configs([small_config(seed=1), small_config(seed=2)])
        assert executor.simulations_run == 2
        assert cache.hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SimJob.of(small_config())
        cache.path_for(job_key(job)).write_text("{ not json")
        assert cache.lookup(job_key(job)) is None
        assert cache.misses == 1

    def test_corrupt_entry_quarantined_and_counted(self, tmp_path):
        """Satellite: corrupt entries move to ``<key>.corrupt`` and the
        slot is rebuilt by the next store instead of missing forever."""
        cache = ResultCache(tmp_path)
        job = SimJob.of(small_config())
        key = job_key(job)
        cache.path_for(key).write_text("{ not json")
        assert cache.lookup(key) is None
        assert cache.corrupt == 1
        quarantined = tmp_path / f"{key}.corrupt"
        assert quarantined.exists()
        assert quarantined.read_text() == "{ not json"  # evidence kept
        assert "1 corrupt (quarantined)" in cache.summary()
        # The slot is free again: a store + lookup round-trips.
        executor = ParallelExecutor(cache=cache)
        (record,) = executor.run_jobs([job])
        assert cache.lookup(key) == record
        assert cache.corrupt == 1  # no further quarantines

    def test_non_object_entry_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("somekey").write_text("[1, 2, 3]")
        assert cache.lookup("somekey") is None
        assert cache.corrupt == 1

    def test_stale_version_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SimJob.of(small_config())
        cache.path_for(job_key(job)).write_text(
            json.dumps({"version": CACHE_VERSION + 1, "record": {}})
        )
        assert cache.lookup(job_key(job)) is None
        assert cache.corrupt == 0  # stale, not corrupt: no quarantine

    def test_store_tmp_names_unique_per_writer(self, tmp_path):
        """Satellite: concurrent stores of one key cannot share a tmp
        file — names embed the pid and a per-process counter."""
        cache = ResultCache(tmp_path)
        seen = []
        original_replace = Path.replace

        def spy_replace(self, target):
            if self.suffix == ".tmp":
                seen.append(self.name)
            return original_replace(self, target)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Path, "replace", spy_replace)
            cache.store("samekey", {"a": 1})
            cache.store("samekey", {"a": 2})
        assert len(seen) == 2
        assert seen[0] != seen[1]
        assert all(name.startswith(f"samekey.{os.getpid()}.") for name in seen)
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.lookup("samekey") == {"a": 2}

    @POLICIES
    def test_refused_store_still_delivers_the_record(
        self, tmp_path, refusing_disk, policy
    ):
        """A full or unwritable cache disk costs the cache, not the sweep:
        every record comes back and each refused store is counted."""
        cache = ResultCache(tmp_path)
        configs = [small_config(seed=1), small_config(seed=2)]
        records = ParallelExecutor(cache=cache, policy=policy).run_configs(configs)
        assert records == [result_record(run_simulation(c)) for c in configs]
        assert cache.counters()["failed_stores"] == 2 and cache.stores == 0
        assert cache.summary() == "0 hits, 2 misses, 0 stores, 2 failed stores"
        assert list(tmp_path.iterdir()) == []

    def test_failed_store_leaves_no_tmp_litter(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(TypeError):
            cache.store("key", {"bad": object()})  # not JSON-serialisable
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.stores == 0


class TestJobKeys:
    def test_equal_jobs_equal_keys(self):
        assert job_key(SimJob.of(small_config())) == job_key(
            SimJob.of(small_config())
        )

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 2},
            {"injection_rate": 0.09},
            {"router": "generic"},
            {"routing": "adaptive"},
            {"traffic": "transpose"},
            {"measure_packets": 61},
            {"width": 4},
        ],
    )
    def test_any_config_change_changes_key(self, override):
        assert job_key(SimJob.of(small_config(**override))) != job_key(
            SimJob.of(small_config())
        )

    def test_router_config_changes_key(self):
        tweaked = small_config(
            router_config=RouterConfig.for_architecture("roco", mirror_allocation=False)
        )
        assert job_key(SimJob.of(tweaked)) != job_key(SimJob.of(small_config()))

    def test_faults_change_key(self):
        nodes = [NodeId(x, y) for y in range(3) for x in range(3)]
        faults = random_faults(nodes, 1, random.Random(3), critical=True)
        assert job_key(SimJob.of(small_config(), faults)) != job_key(
            SimJob.of(small_config())
        )


class TestProgressAndWorkers:
    def test_progress_reports_every_job_including_cache_hits(self, tmp_path):
        calls = []
        cache = ResultCache(tmp_path)
        executor = ParallelExecutor(
            cache=cache,
            progress=lambda done, total, record: calls.append((done, total)),
        )
        configs = [small_config(seed=s) for s in (1, 2)]
        executor.run_configs(configs)
        executor.run_configs(configs)
        assert calls == [(1, 2), (2, 2), (1, 2), (2, 2)]

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_spawn_supported_under_pytest(self):
        # pytest's __main__ has an importable spec, so real pools work.
        assert _spawn_supported() is True

    @pytest.mark.parametrize(
        "fake_main",
        [
            None,  # no __main__ module at all (embedded interpreter)
            types.ModuleType("__main__"),  # REPL / python -c: no file
        ],
    )
    def test_spawn_unsupported_without_importable_main(
        self, monkeypatch, fake_main
    ):
        if fake_main is None:
            monkeypatch.delitem(sys.modules, "__main__", raising=False)
        else:
            fake_main.__spec__ = None
            monkeypatch.setitem(sys.modules, "__main__", fake_main)
        assert _spawn_supported() is False

    def test_spawn_unsupported_main_file_missing(self, monkeypatch, tmp_path):
        fake_main = types.ModuleType("__main__")
        fake_main.__spec__ = None
        fake_main.__file__ = str(tmp_path / "vanished.py")
        monkeypatch.setitem(sys.modules, "__main__", fake_main)
        assert _spawn_supported() is False

    @POLICIES
    def test_unspawnable_parent_falls_back_to_serial(self, monkeypatch, policy):
        """Satellite: workers=2 from a REPL-like parent runs serial with
        an explicit warning and still produces identical records."""
        configs = [small_config(seed=s) for s in (1, 2)]
        serial = ParallelExecutor().run_configs(configs)
        fake_main = types.ModuleType("__main__")
        fake_main.__spec__ = None
        monkeypatch.setitem(sys.modules, "__main__", fake_main)
        executor = ParallelExecutor(workers=2, policy=policy)
        with pytest.warns(NestedPoolFallbackWarning, match="spawn entry point"):
            records = executor.run_configs(configs)
        assert records == serial
        assert executor.simulations_run == 2
        assert executor.last_stats.simulated == 2

    @POLICIES
    def test_daemonic_context_falls_back_to_inline(self, monkeypatch, policy):
        """Satellite: a pool requested from inside a daemonic worker
        (where children are forbidden) degrades to inline execution with
        a structured warning instead of crashing, and the records stay
        identical to serial ones."""
        configs = [small_config(seed=s) for s in (1, 2)]
        serial = ParallelExecutor().run_configs(configs)
        monkeypatch.setattr(
            parallel_module, "_in_daemonic_process", lambda: True
        )
        executor = ParallelExecutor(workers=2, policy=policy)
        with pytest.warns(
            NestedPoolFallbackWarning, match="daemonic worker context"
        ):
            records = executor.run_configs(configs)
        assert records == serial
        assert executor.simulations_run == 2
        assert executor.last_stats.simulated == 2

    @POLICIES
    def test_lone_pending_job_spawns_nothing(self, monkeypatch, tmp_path, policy):
        """One rule for a lone pending job: it runs in this process, so a
        rebound ``execute_job`` sees it; a fully warm pass builds no set."""
        seen = []
        real = parallel_module.execute_job

        def spy(job):
            seen.append(job.config.seed)
            return real(job)

        from repro.harness import resilient

        monkeypatch.setattr(resilient, "execute_job", spy)
        cache = ResultCache(tmp_path)
        configs = [small_config(seed=s) for s in (1, 2)]
        ParallelExecutor(cache=cache).run_configs(configs[:1])
        executor = ParallelExecutor(workers=2, cache=cache, policy=policy)
        executor.run_configs(configs)
        assert seen == [1, 2]  # seed 2 was the lone pending job
        monkeypatch.setattr(
            resilient, "ManagedWorkerSet", None
        )  # a warm pass must not reach for it
        assert len(executor.run_configs(configs)) == 2
        assert executor.last_stats.cache_hits == 2

    def test_no_fallback_warning_in_normal_runs(self, recwarn):
        ParallelExecutor(workers=1).run_configs([small_config(seed=1)])
        assert not [
            w
            for w in recwarn.list
            if issubclass(w.category, NestedPoolFallbackWarning)
        ]

    def test_pool_fallback_reason_single_worker_is_none(self):
        assert pool_fallback_reason(1) is None
        assert pool_fallback_reason(0) is None

    def test_progress_finish_zero_jobs(self):
        """Satellite: an empty sweep says so — no '0/0', no '0 ok,
        0 failed, 0 retried'."""
        stream = io.StringIO()
        printer = ProgressPrinter(stream=stream)
        printer.finish(ExecutionStats(total=0))
        out = stream.getvalue()
        assert out == "[sweep] finished: no jobs to run\n"
        assert "0/0" not in out and "retried" not in out

    def test_progress_finish_all_cached(self):
        """Satellite: a 100%-cached rerun reports the cache explicitly
        instead of pretending simulations happened."""
        stream = io.StringIO()
        printer = ProgressPrinter(stream=stream)
        printer.finish(ExecutionStats(total=4, cache_hits=4, simulated=0))
        out = stream.getvalue()
        assert out == "[sweep] finished: all 4 served from cache, 0 simulated\n"
        assert "failed" not in out and "retried" not in out

    def test_progress_finish_all_cached_with_resumed(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream=stream)
        printer.finish(
            ExecutionStats(total=4, cache_hits=4, simulated=0, resumed=2)
        )
        assert (
            stream.getvalue()
            == "[sweep] finished: all 4 served from cache, 0 simulated"
            " (2 resumed)\n"
        )

    def test_progress_finish_clean_run_omits_zero_counters(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream=stream)
        printer.finish(ExecutionStats(total=3, simulated=3))
        assert stream.getvalue() == "[sweep] finished: 3 ok\n"

    def test_progress_finish_keeps_failure_breakdown(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream=stream)
        printer.finish(
            ExecutionStats(total=3, simulated=3, failures=1, retries=2)
        )
        assert (
            stream.getvalue()
            == "[sweep] finished: 2 ok, 1 failed, 2 retried\n"
        )

    def test_faulty_jobs_run_through_executor(self):
        nodes = [NodeId(x, y) for y in range(3) for x in range(3)]
        faults = random_faults(nodes, 1, random.Random(7), critical=False)
        job = SimJob.of(small_config(), faults)
        (record,) = ParallelExecutor().run_jobs([job])
        assert record["num_faults"] == 1
        direct = result_record(run_simulation(small_config(), faults=list(faults)))
        assert record == direct
