"""Sharded mesh execution: dispatch, the envelope and the traffic oracle.

Inside the envelope a sharded run must be *bit-identical* to the
single-process reference — same result record, same packet accounting,
same scheduler telemetry: the ``tiles`` rows of
tests/test_engines_agree.py.  Outside it the engine must refuse loudly
while the reference path stays untouched; the audit and the full sweep
are outside it, the object engine's.  Tiles are stepped in the caller's
process, whatever that process is; that is pinned here without a clock.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import SimulationConfig, parse_shards
from repro.core.simulator import Simulator, run_simulation
from repro.core.shard import TileSimulator
from repro.core.soa.errors import BackendUnsupportedError, ensure_supported
from repro.core.types import NodeId
from repro.faults import Component, ComponentFault
from repro.harness.export import result_record
from repro.harness.parallel import ParallelExecutor, SimJob, execute_job
from repro.harness.resilient import JobFailure, ManagedWorkerSet, RetryPolicy
from repro.harness.sharded import (
    ShardPlan,
    ShardUnsupportedError,
    _split_extent,
    build_generation_schedule,
    ensure_sharded_supported,
    run_sharded_simulation,
)

from .test_resilient import drain


def grid_config(**overrides) -> SimulationConfig:
    params = {
        "width": 8,
        "height": 8,
        "router": "roco",
        "routing": "xy",
        "traffic": "uniform",
        "injection_rate": 0.15,
        "warmup_packets": 40,
        "measure_packets": 140,
        "seed": 11,
    }
    params.update(overrides)
    return SimulationConfig(**params)


# ----------------------------------------------------------------------
# Dispatch (bit-identity is tests/test_engines_agree.py's ``tiles`` rows)
# ----------------------------------------------------------------------


def same_run(result) -> tuple:
    """What a tiled run must share with the reference: the record, the
    scheduler counters and the packet accounting."""
    return (result_record(result), result.scheduler, result.generated_packets,
            result.total_delivered, result.total_dropped)


def test_run_simulation_dispatches_on_config_shards(monkeypatch):
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40, shards="2x2")
    assert config.shards == (2, 2)
    stepped = set()
    front = TileSimulator.front

    def counted(tile, cycle):
        stepped.add(tile.tile_index)
        return front(tile, cycle)

    monkeypatch.setattr(TileSimulator, "front", counted)
    result = run_simulation(config)
    assert stepped == {0, 1, 2, 3}
    reference = run_simulation(replace(config, shards=None))
    assert same_run(result) == same_run(reference)


def test_the_pinned_inline_call_runs_the_tiles(monkeypatch):
    """perfbench's ``shard_inline`` cell passes ``inline=True``: the
    keyword is accepted, and the run is the tiled one."""
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40)
    stepped = set()
    front = TileSimulator.front

    def counted(tile, cycle):
        stepped.add(tile.tile_index)
        return front(tile, cycle)

    monkeypatch.setattr(TileSimulator, "front", counted)
    result = run_sharded_simulation(config, shards=(2, 1), inline=True)
    assert stepped == {0, 1}
    assert same_run(result) == same_run(Simulator(config).run())


def test_a_run_without_a_shard_spec_is_refused():
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40)
    with pytest.raises(ValueError, match="no shard spec"):
        run_sharded_simulation(config)


def refuse_tiles(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a 1x1 run built a tile")

    monkeypatch.setattr(TileSimulator, "__init__", refuse)


def test_shards_1x1_is_the_reference_path(monkeypatch):
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40)
    reference = Simulator(config).run()
    refuse_tiles(monkeypatch)
    sharded = run_sharded_simulation(config, (1, 1))
    assert same_run(sharded) == same_run(reference)


# ----------------------------------------------------------------------
# Planning and the envelope
# ----------------------------------------------------------------------


def test_split_extent_balanced():
    assert _split_extent(8, 2) == [(0, 4), (4, 8)]
    assert _split_extent(7, 2) == [(0, 4), (4, 7)]
    assert _split_extent(9, 3) == [(0, 3), (3, 6), (6, 9)]
    spans = _split_extent(17, 4)
    assert spans[0] == (0, 5)
    assert spans[-1][1] == 17
    assert max(b - a for a, b in spans) - min(b - a for a, b in spans) <= 1


def test_plan_rects_tile_the_mesh():
    plan = ShardPlan.plan(grid_config(), (2, 2))
    covered = set()
    for rect in plan.rects:
        nodes = set(rect.nodes())
        assert not covered & nodes
        covered |= nodes
    assert len(covered) == 64
    assert plan.tile_of(0, 0) == 0
    assert plan.tile_of(7, 7) == 3


def test_plan_tile_of_an_uneven_split():
    """A 5x3 mesh in 2x1 tiles: the west tile takes the odd column."""
    plan = ShardPlan.plan(grid_config(width=5, height=3), (2, 1))
    assert plan.num_tiles == 2
    owners = {(x, y): plan.tile_of(x, y) for x in range(5) for y in range(3)}
    assert sorted(xy for xy, tile in owners.items() if tile == 0) == [
        (x, y) for x in range(3) for y in range(3)
    ]
    for rect_index, rect in enumerate(plan.rects):
        assert all(owners[node.x, node.y] == rect_index for node in rect.nodes())
    for outside in ((5, 0), (0, 3), (-1, 0)):
        with pytest.raises(ValueError, match="outside every tile"):
            plan.tile_of(*outside)


def test_plan_waves_are_anti_diagonal():
    plan = ShardPlan.plan(
        grid_config(width=12, height=12), (3, 3)
    )
    assert plan.waves == ((0,), (1, 3), (2, 4, 6), (5, 7), (8,))


def test_plan_rejects_one_wide_tiles():
    with pytest.raises(ShardUnsupportedError):
        ShardPlan.plan(grid_config(width=4, height=4), (4, 1))
    with pytest.raises(ShardUnsupportedError):
        ShardPlan.plan(grid_config(width=4, height=4), (1, 4))
    # 2-wide is the minimum, and is fine.
    ShardPlan.plan(grid_config(width=4, height=4), (2, 2))


def test_parse_shards():
    assert parse_shards("2x2") == (2, 2)
    assert parse_shards("1x4") == (1, 4)
    assert parse_shards((3, 2)) == (3, 2)
    assert parse_shards([2, 1]) == (2, 1)
    for bad in ("2", "x2", "2x", "2x2x2", "ax2", 4, (0, 2), (2,)):
        with pytest.raises(ValueError):
            parse_shards(bad)


def test_config_normalises_shards():
    assert grid_config(shards="2x4").shards == (2, 4)
    assert grid_config(shards=None).shards is None
    with pytest.raises(ValueError):
        grid_config(shards="nope")


def test_envelope_rejections():
    base = grid_config()
    with pytest.raises(ShardUnsupportedError):
        ensure_sharded_supported(replace(base, router="path_sensitive"))
    with pytest.raises(ShardUnsupportedError):
        ensure_sharded_supported(
            replace(base, router="generic", topology="torus")
        )
    with pytest.raises(ShardUnsupportedError):
        ensure_sharded_supported(replace(base, backend="soa"))
    fault = ComponentFault(NodeId(0, 0), Component.BUFFER)
    with pytest.raises(ShardUnsupportedError):
        ensure_sharded_supported(base, faults=[fault])
    # The object engine is the audited and the full-sweep reference.
    with pytest.raises(ShardUnsupportedError, match="audit=True"):
        ensure_sharded_supported(replace(base, audit=True))
    with pytest.raises(ShardUnsupportedError, match="audit=True"):
        run_simulation(replace(base, audit=True, shards=(2, 2)))
    with pytest.raises(ShardUnsupportedError, match="full_sweep=True"):
        run_simulation(replace(base, shards=(2, 2)), full_sweep=True)
    # In-envelope config passes.
    ensure_sharded_supported(base)


def test_shards_1x1_runs_the_audited_and_full_sweep_reference(monkeypatch):
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40)
    audited = replace(config, audit=True)
    references = [run_simulation(audited), run_simulation(config, full_sweep=True)]
    refuse_tiles(monkeypatch)
    tiled = [run_simulation(replace(audited, shards=(1, 1))),
             run_simulation(replace(config, shards=(1, 1)), full_sweep=True)]
    assert [same_run(r) for r in tiled] == [same_run(r) for r in references]


def test_shard_unsupported_is_fatal_to_the_resilient_executor():
    """ShardUnsupportedError must ride the BackendUnsupportedError
    taxonomy so retry policies treat an envelope rejection as fatal."""
    assert issubclass(ShardUnsupportedError, BackendUnsupportedError)


def test_an_audited_tiled_job_is_quarantined_as_fatal():
    """The executor settles an envelope rejection on its first attempt,
    like a stall, and the rest of the sweep runs."""
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40)
    jobs = [SimJob.of(replace(config, shards=(2, 2), audit=True)),
            SimJob.of(replace(config, shards=(2, 2)))]
    executor = ParallelExecutor(policy=RetryPolicy(backoff_base=0.0))
    refused, record = executor.run_jobs(jobs)
    failure = JobFailure.from_record(refused)
    assert (failure.error_type, failure.kind, failure.attempts) == (
        "ShardUnsupportedError", "fatal", 1
    )
    assert "audit=True" in failure.message
    assert executor.last_stats.retries == 0
    assert record == execute_job(SimJob.of(config))


def test_soa_backend_rejects_sharded_configs():
    config = grid_config(shards="2x2", backend="object")
    with pytest.raises(BackendUnsupportedError, match="shards"):
        ensure_supported(replace(config, backend="soa"))


# ----------------------------------------------------------------------
# Traffic oracle
# ----------------------------------------------------------------------


def test_oracle_replays_reference_generation():
    config = grid_config(width=4, height=4, warmup_packets=15,
                         measure_packets=45)
    entries, measure_start = build_generation_schedule(config)
    assert len(entries) == config.total_packets
    # pids are creation order.
    assert [e[3] for e in entries] == list(range(len(entries)))
    # Cycles are non-decreasing.
    cycles = [e[0] for e in entries]
    assert cycles == sorted(cycles)
    # The warmup-th creation flips measurement and is itself measured.
    measured_flags = [e[7] for e in entries]
    assert measured_flags[: config.warmup_packets] == \
        [False] * config.warmup_packets
    assert all(measured_flags[config.warmup_packets:])
    assert entries[config.warmup_packets][0] == measure_start
    # The oracle-driven run injects exactly the measured population.
    result = run_sharded_simulation(config, (2, 2))
    assert result.injected_packets == config.measure_packets


def test_oracle_xyyx_variant_draws():
    config = grid_config(routing="xy-yx", width=4, height=4,
                         warmup_packets=10, measure_packets=40)
    entries, _ = build_generation_schedule(config)
    assert any(e[6] for e in entries)
    assert any(not e[6] for e in entries)
    xy_entries, _ = build_generation_schedule(replace(config, routing="xy"))
    assert not any(e[6] for e in xy_entries)


# ----------------------------------------------------------------------
# No process: the same run in every parent
# ----------------------------------------------------------------------


def test_no_process_is_started(monkeypatch):
    """A tile run neither asks for a worker context nor starts a child."""

    def refuse(*args, **kwargs):
        raise AssertionError("a sharded run tried to start a process")

    monkeypatch.setattr("repro.harness.parallel.worker_context", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40)
    sharded = run_sharded_simulation(config, (2, 2))
    assert same_run(sharded) == same_run(Simulator(config).run())


def execute_recording_warnings(job: SimJob, index: int, attempt: int) -> dict:
    """Top-level ``job_fn``: the record, what was warned on the way and
    whether the process that ran it may have children."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        record = execute_job(job)
    return {
        "record": record,
        "warned": [w.category.__name__ for w in caught],
        "daemonic": multiprocessing.current_process().daemon,
    }


def test_daemonic_sweep_workers_run_tiles_without_a_warning():
    """A pool worker may have no children; a sharded job needs none."""
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40, shards=(2, 1))
    jobs = [SimJob.of(replace(config, seed=seed)) for seed in (11, 12)]
    # Two jobs submitted before the first pass go to the two idle workers.
    with ManagedWorkerSet(workers=2, job_fn=execute_recording_warnings) as pool:
        indices = [pool.submit(job) for job in jobs]
        settled = drain(pool)
    for index, job in zip(indices, jobs):
        assert settled[index] == {
            "record": execute_job(job), "warned": [], "daemonic": True,
        }
    assert ParallelExecutor(workers=2).run_jobs(jobs) == [
        settled[index]["record"] for index in indices
    ]


def test_stdin_parent_gets_the_reference_record_and_no_warning():
    """A stdin / REPL parent has no entry point for a child to replay,
    and it does not matter: no child is started."""
    program = (
        "import json, warnings\n"
        "from repro.core.config import SimulationConfig\n"
        "from repro.core.simulator import Simulator\n"
        "from repro.harness.sharded import run_sharded_simulation\n"
        "from repro.harness.export import result_record\n"
        "config = SimulationConfig(width=4, height=4, injection_rate=0.15,\n"
        "    warmup_packets=10, measure_packets=40, seed=11)\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    sharded = run_sharded_simulation(config, shards=(2, 1))\n"
        "def same_run(r):\n"
        "    return [result_record(r), repr(r.scheduler), r.generated_packets,\n"
        "            r.total_delivered, r.total_dropped]\n"
        "print(json.dumps([\n"
        "    [[w.category.__name__, str(w.message)] for w in caught],\n"
        "    same_run(sharded) == same_run(Simulator(config).run())]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-"],
        input=program,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    caught, identical = json.loads(done.stdout.strip().splitlines()[-1])
    assert identical is True
    assert caught == []


def test_planner_rejection_reaches_the_caller_of_a_sharded_config():
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40, shards=(3, 1))
    with pytest.raises(ShardUnsupportedError):
        # 4 columns / 3 tiles -> a 1-wide tile.
        run_sharded_simulation(config)
