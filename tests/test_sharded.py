"""Sharded mesh execution: bit-identity, supervision and the ledger.

The contract mirrors the SoA backend's (tests/test_backend_conformance):
inside the envelope a sharded run must be *bit-identical* to the
single-process reference — same result record, same packet accounting,
same scheduler telemetry — and outside it the engine must refuse
loudly while the reference path stays untouched.  On top of that the
tile protocol adds its own failure surface: boundary messages, worker
crashes and the cross-shard conservation ledger, each exercised here
with deterministic chaos hooks.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.audit.sharded import ShardInvariantViolation
from repro.core.config import SimulationConfig, parse_shards
from repro.core.simulator import Simulator, run_simulation
from repro.core.soa.errors import BackendUnsupportedError, ensure_supported
from repro.core.types import NodeId
from repro.faults import Component, ComponentFault
from repro.harness.sharded import (
    ShardPlan,
    ShardUnsupportedError,
    ShardedExecutionError,
    _ChaosHooks,
    _ProcessTile,
    _split_extent,
    build_generation_schedule,
    compare_records,
    ensure_sharded_supported,
    run_sharded_simulation,
)


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


def assert_identical(config, shards, *, full_sweep=False, inline=True):
    reference = Simulator(config, full_sweep=full_sweep).run()
    sharded = run_sharded_simulation(
        config, shards, full_sweep=full_sweep, inline=inline
    )
    mismatches = compare_records(reference, sharded)
    assert mismatches == []
    return reference, sharded


# ----------------------------------------------------------------------
# Bit-identity
# ----------------------------------------------------------------------

EQUIVALENCE_CELLS = sorted(
    itertools.product(("roco", "generic"), (False, True))
)


@pytest.mark.parametrize("router,full_sweep", EQUIVALENCE_CELLS)
def test_8x8_2x2_bit_identical_across_scheduler_grid(router, full_sweep):
    config = grid_config(router=router)
    assert_identical(config, (2, 2), full_sweep=full_sweep)


@pytest.mark.parametrize("router", ["roco", "generic"])
def test_4x4_1x2_bit_identical(router):
    config = grid_config(
        width=4, height=4, router=router, warmup_packets=20,
        measure_packets=80,
    )
    assert_identical(config, (1, 2))


@pytest.mark.parametrize("routing", ["xy-yx", "adaptive"])
def test_routing_modes_bit_identical(routing):
    config = grid_config(routing=routing)
    assert_identical(config, (2, 2))


def test_transpose_traffic_bit_identical():
    config = grid_config(traffic="transpose", injection_rate=0.1)
    assert_identical(config, (2, 1))


def test_process_driver_bit_identical():
    """The real worker-process path (spawn, pipes) matches too."""
    config = grid_config(warmup_packets=20, measure_packets=80)
    assert_identical(config, (2, 2), inline=False)


def test_tile_scheduler_counters_reported():
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40)
    result = run_sharded_simulation(config, (2, 2), inline=True)
    assert len(result.tile_scheduler) == 4
    assert sum(c.router_steps for c in result.tile_scheduler) == \
        result.scheduler.router_steps
    reference = Simulator(config).run()
    assert reference.tile_scheduler == []


def test_run_simulation_dispatches_on_config_shards():
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40, shards="2x2")
    assert config.shards == (2, 2)
    result = run_simulation(config)
    assert len(result.tile_scheduler) == 4
    reference = run_simulation(replace(config, shards=None))
    assert compare_records(reference, result) == []


def test_shards_1x1_is_the_reference_path():
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40)
    reference = Simulator(config).run()
    sharded = run_sharded_simulation(config, (1, 1))
    assert compare_records(reference, sharded) == []
    assert sharded.tile_scheduler == []


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
    with pytest.raises(ShardUnsupportedError):
        ensure_sharded_supported(base, traffic=object())
    fault = ComponentFault(NodeId(0, 0), Component.BUFFER)
    with pytest.raises(ShardUnsupportedError):
        ensure_sharded_supported(base, faults=[fault])
    # In-envelope config passes.
    ensure_sharded_supported(base)


def test_shard_unsupported_is_fatal_to_the_resilient_executor():
    """ShardUnsupportedError must ride the BackendUnsupportedError
    taxonomy so retry policies treat an envelope rejection as fatal."""
    assert issubclass(ShardUnsupportedError, BackendUnsupportedError)


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
    result = run_sharded_simulation(config, (2, 2), inline=True)
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
# The conservation ledger and chaos hooks
# ----------------------------------------------------------------------


def audit_config(**overrides):
    return grid_config(
        width=4, height=4, warmup_packets=10, measure_packets=60,
        injection_rate=0.25, audit=True, **overrides,
    )


def test_ledger_clean_run_checks_every_cycle():
    config = audit_config()
    reference = Simulator(config).run()
    sharded = run_sharded_simulation(config, (2, 2), inline=True)
    assert compare_records(reference, sharded) == []


def test_dropped_boundary_flit_trips_flit_conservation():
    config = audit_config()
    with pytest.raises(ShardInvariantViolation) as excinfo:
        run_sharded_simulation(
            config, (2, 2), inline=True,
            _chaos=_ChaosHooks(drop_flit=1),
        )
    assert excinfo.value.invariant in ("flit-conservation",
                                       "boundary-transit")


def test_slow_tile_stalls_but_stays_identical():
    """Lookahead is conservative: a slow neighbour delays the wave but
    cannot change what any tile observes."""
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40)
    reference = Simulator(config).run()
    sharded = run_sharded_simulation(
        config, (2, 2),
        _chaos=_ChaosHooks(slow_tile=(1, 0.002)),
    )
    assert compare_records(reference, sharded) == []


def test_worker_crash_surfaces_structured_failure():
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40)
    with pytest.raises(ShardedExecutionError) as excinfo:
        run_sharded_simulation(
            config, (2, 2),
            _chaos=_ChaosHooks(kill_tile=(2, 5)),
        )
    failure = excinfo.value.failure
    assert failure.index == 2
    assert failure.kind == "fatal"
    assert failure.error_type == "ShardWorkerCrash"
    # Whichever branch saw the death first (the liveness poll or EOF on
    # the pipe), and whichever start method delivers the code.
    assert "code 87" in failure.message


def test_reset_pipe_surfaces_structured_failure():
    """A worker that dies with the coordinator's message still unread
    resets the pipe: ``recv`` raises ConnectionResetError, not EOFError.
    The caller must still get the typed crash, not a raw socket error,
    and the exit code, which is only there once the child is reaped."""

    class ResetConnection:
        def poll(self, timeout):
            return True

        def recv(self):
            raise ConnectionResetError(104, "Connection reset by peer")

    class DeadProcess:
        exitcode = None

        def is_alive(self):
            return False

        def join(self, timeout=None):
            self.exitcode = 1

    tile = _ProcessTile.__new__(_ProcessTile)
    tile.index, tile.timeout = 3, 1.0
    tile.conn, tile.process = ResetConnection(), DeadProcess()
    with pytest.raises(ShardedExecutionError) as excinfo:
        tile.recv_front(7)
    failure = excinfo.value.failure
    assert (failure.index, failure.error_type) == (3, "ShardWorkerCrash")
    assert "exit code 1" in failure.message and "cycle 7" in failure.message


def test_stdin_parent_falls_back_inline_like_the_executor():
    """A stdin / REPL parent has no entry point for a child to replay:
    the executor's rule applies here too — the inline driver, a
    ``NestedPoolFallbackWarning``, the same record — where a tile
    process would die importing ``<stdin>``."""
    program = (
        "import json, warnings\n"
        "from repro.core.config import SimulationConfig\n"
        "from repro.core.simulator import Simulator\n"
        "from repro.harness.sharded import (\n"
        "    compare_records, run_sharded_simulation)\n"
        "config = SimulationConfig(width=4, height=4, injection_rate=0.15,\n"
        "    warmup_packets=10, measure_packets=40, seed=11)\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    sharded = run_sharded_simulation(config, shards=(2, 1))\n"
        "print(json.dumps([\n"
        "    [[w.category.__name__, str(w.message)] for w in caught],\n"
        "    compare_records(Simulator(config).run(), sharded)]))\n"
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
    caught, mismatches = json.loads(done.stdout.strip().splitlines()[-1])
    assert mismatches == []
    assert [category for category, _ in caught] == ["NestedPoolFallbackWarning"]
    assert "entry point unavailable" in caught[0][1]


def test_worker_exception_surfaces_structured_failure():
    """An in-worker exception is relayed with its type name, not a
    crash; the inline driver raises it directly."""
    config = grid_config(width=4, height=4, warmup_packets=10,
                         measure_packets=40, shards=(3, 1))
    with pytest.raises(ShardUnsupportedError):
        # 4 columns / 3 tiles -> a 1-wide tile; planner rejects before
        # any worker spawns.
        run_sharded_simulation(config)


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------


def test_cache_key_stable_without_shards_and_distinct_with():
    config = grid_config()
    payload = config.to_payload()
    assert "shards" not in payload
    sharded_payload = replace(config, shards=(2, 2)).to_payload()
    assert sharded_payload["shards"] == [2, 2]
    assert payload != sharded_payload
