"""Sharded mesh execution: cooperating tile processes, one per rectangle.

The mesh is partitioned by a :class:`ShardPlan` into rectangular tiles,
each stepped by a :class:`~repro.core.shard.TileSimulator` in its own
worker process.  A coordinator drives every tile through the two halves
of the cycle in lockstep and routes all cross-tile state between them
(see docs/sharded-scaling.md for the full protocol):

1. ``front(t)`` on all tiles in parallel — generation, injection, link
   delivery, switch traversal.  Flits launched onto boundary links have
   a 2-cycle lookahead (``LINK_DELAY``) before any receiver can observe
   them, so harvesting them once per cycle is always conservative.
2. ``alloc(t)`` in *anti-diagonal wave order* over the tile grid.  VC
   allocation arbitrates cross-tile (upstream routers claim VCs on the
   neighbouring tile's boundary routers), and the reference resolves
   same-cycle claim races in global row-major router order — which,
   restricted to the pairs that can actually race across a cut, is
   exactly "west tile before east tile, north tile before south tile".
   Each tile's alloc grant carries every delta routed to it so far, so
   a successor tile allocates against the same owner/credit state the
   reference would have shown it.

Because both halves replay the reference phases verbatim and all
cross-tile visibility matches the reference's intra-cycle ordering, a
sharded run is **bit-identical** to the single-process run — asserted
cell-by-cell by ``python -m repro shards --grid`` and
tests/test_sharded.py.

Traffic is generated from a central *oracle* (:func:`build_generation_schedule`)
that replays the reference simulator's exact rng-draw order once up
front, then hands each tile its own sources' creation schedule — tiles
never touch an rng, so partitioning cannot perturb the stream.

Worker supervision follows repro.harness.resilient: crashes, hangs and
worker exceptions surface as a structured
:class:`~repro.harness.resilient.JobFailure` (wrapped in
:class:`ShardedExecutionError`) naming the tile, instead of deadlocking
the coordinator.  Cycle-lockstep tiles cannot be retried mid-protocol
(their state is minted by every previous cycle), so quarantine is
whole-run: callers' retry policies see a fatal, deterministic error.

Tile processes start from the sweep workers' context
(:func:`~repro.harness.parallel.worker_context`: forks of one preloaded
fork server, ``spawn`` where there is none), so a run pays no
interpreter boot or package import per tile, and whether this process
may have children at all is the executor's question
(:func:`~repro.harness.parallel.pool_fallback_reason`): a daemonic
sweep worker or a stdin parent drives the tiles inline, with a
:class:`~repro.harness.parallel.NestedPoolFallbackWarning`.
"""

from __future__ import annotations

import os
import random
import time
import traceback
from bisect import bisect_right
from dataclasses import dataclass

from repro.core.config import SimulationConfig, parse_shards
from repro.core.runloop import StrandedCensus, drive, packet_draws
from repro.core.shard import TileRect, TileSimulator, delta_box
from repro.core.simulator import SimulationResult, Simulator
from repro.core.soa.errors import BackendUnsupportedError
from repro.core.statistics import StatsCollector
from repro.core.types import DropReason, NodeId, grid_nodes
from repro.harness.parallel import (
    pool_fallback_reason,
    warn_pool_fallback,
    worker_context,
)
from repro.traffic import make_traffic

#: Router architectures the tile engine supports (the same pair the
#: paper's comparison — and the SoA backend — covers).
SHARD_ROUTERS = ("roco", "generic")

#: Default seconds the coordinator waits for a tile's phase reply
#: before declaring the worker hung.
DEFAULT_TILE_TIMEOUT = 120.0

#: Longest the coordinator waits for a dead or terminated worker to be
#: reaped (and its exit code to arrive).
_REAP_TIMEOUT = 5.0


class ShardUnsupportedError(BackendUnsupportedError):
    """A configuration outside the sharded-execution envelope.

    Subclasses :class:`BackendUnsupportedError` so the resilient
    executor's fatal-vs-transient taxonomy (and any caller already
    catching envelope rejections) treats it identically; only the
    message differs.
    """

    def __init__(self, feature: str, detail: str = "") -> None:
        message = f"sharded execution does not support {feature}"
        if detail:
            message += f" ({detail})"
        message += "; run with shards=None"
        RuntimeError.__init__(self, message)
        self.feature = feature


class ShardedExecutionError(RuntimeError):
    """A tile worker died or wedged; carries the structured failure."""

    def __init__(self, failure) -> None:
        super().__init__(
            f"tile {failure.index} failed ({failure.error_type}): "
            f"{failure.message}"
        )
        self.failure = failure


def ensure_sharded_supported(config, traffic=None, faults=None, schedule=None):
    """Raise :class:`ShardUnsupportedError` outside the envelope.

    The envelope is: RoCo/generic routers on a fault-free mesh, any
    routing mode and *named* traffic pattern, both schedulers, the
    object backend.  Faults are rejected because fault propagation
    (handshake repair, purges, reachability) is global and non-local to
    a tile; explicit traffic instances because the generation oracle
    must be able to rebuild the pattern deterministically per tile.
    """
    if config.router not in SHARD_ROUTERS:
        raise ShardUnsupportedError(
            f"router={config.router!r}", "only roco and generic are tiled"
        )
    if config.topology != "mesh":
        raise ShardUnsupportedError(f"topology={config.topology!r}")
    if config.backend != "object":
        raise ShardUnsupportedError(
            f"backend={config.backend!r}",
            "tile workers run the object engine",
        )
    if traffic is not None:
        raise ShardUnsupportedError(
            "explicit traffic instances",
            "pass a named pattern via config.traffic so the generation "
            "oracle can replay it",
        )
    if faults:
        raise ShardUnsupportedError(
            "static fault injection", f"{len(list(faults))} fault(s) requested"
        )
    if schedule is not None and getattr(schedule, "events", ()):
        raise ShardUnsupportedError(
            "runtime fault schedules",
            f"{len(schedule.events)} event(s) scheduled",
        )


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------


def _split_extent(extent: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous balanced chunks of ``range(extent)`` as (start, stop)."""
    base, remainder = divmod(extent, parts)
    spans = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < remainder else 0)
        spans.append((start, start + size))
        start += size
    return spans


@dataclass(frozen=True)
class ShardPlan:
    """The tile decomposition of one mesh: rectangles plus wave order."""

    tiles_x: int
    tiles_y: int
    rects: tuple[TileRect, ...]
    #: Anti-diagonal waves of tile indices: every tile's west and north
    #: neighbours complete their allocate phase in an earlier wave.
    waves: tuple[tuple[int, ...], ...]

    @classmethod
    def plan(cls, config: SimulationConfig, shards) -> "ShardPlan":
        tiles_x, tiles_y = parse_shards(shards)
        x_spans = _split_extent(config.width, tiles_x)
        y_spans = _split_extent(config.height, tiles_y)
        if tiles_x > 1 and min(x1 - x0 for x0, x1 in x_spans) < 2:
            raise ShardUnsupportedError(
                f"shards={tiles_x}x{tiles_y} on a {config.width}x"
                f"{config.height} mesh",
                "each tile must be at least 2 columns wide when the X axis "
                "is split (boundary VCs admit both east and west inputs and "
                "can only be mirrored on one neighbouring tile)",
            )
        if tiles_y > 1 and min(y1 - y0 for y0, y1 in y_spans) < 2:
            raise ShardUnsupportedError(
                f"shards={tiles_x}x{tiles_y} on a {config.width}x"
                f"{config.height} mesh",
                "each tile must be at least 2 rows tall when the Y axis is "
                "split",
            )
        rects = tuple(
            TileRect(x0, y0, x1, y1)
            for y0, y1 in y_spans
            for x0, x1 in x_spans
        )
        waves: dict[int, list[int]] = {}
        for ty in range(tiles_y):
            for tx in range(tiles_x):
                waves.setdefault(tx + ty, []).append(ty * tiles_x + tx)
        ordered = tuple(
            tuple(waves[key]) for key in sorted(waves)
        )
        return cls(tiles_x=tiles_x, tiles_y=tiles_y, rects=rects, waves=ordered)

    @property
    def num_tiles(self) -> int:
        return self.tiles_x * self.tiles_y

    def tile_of(self, x: int, y: int) -> int:
        for index, rect in enumerate(self.rects):
            if rect.x0 <= x < rect.x1 and rect.y0 <= y < rect.y1:
                return index
        raise ValueError(f"({x}, {y}) outside every tile")


# ----------------------------------------------------------------------
# Traffic oracle
# ----------------------------------------------------------------------


def build_generation_schedule(config: SimulationConfig):
    """Run the reference generator's rng-draw order centrally.

    Returns ``(entries, measure_start_cycle)`` where each entry is
    ``(cycle, src_x, src_y, pid, dest_x, dest_y, yx_first, measured)``
    in global creation (pid) order.  The draws come from
    :func:`~repro.core.runloop.packet_draws`, the generator the
    reference ``Simulator`` consumes cycle by cycle, run here to
    exhaustion over every node of the (fault-free) mesh.
    """
    rng = random.Random(config.seed)
    nodes = grid_nodes(config.width, config.height)
    traffic = make_traffic(config.traffic)
    traffic.bind(config, rng, nodes)
    entries: list[tuple] = []
    measure_start: int | None = None
    for cycle, packets in packet_draws(config, traffic, rng, nodes):
        for p in packets:
            if p.measured and measure_start is None:
                measure_start = cycle
            entries.append(
                (cycle, p.src.x, p.src.y, p.pid, p.dest.x, p.dest.y,
                 p.yx_first, p.measured)
            )
    return entries, measure_start


# ----------------------------------------------------------------------
# Tile drivers: in-process and worker-process
# ----------------------------------------------------------------------


def _tile_worker(conn, payload) -> None:
    """Worker-process main loop: one message, one phase."""
    try:
        sim = TileSimulator(
            payload["config"],
            payload["rects"],
            payload["tile"],
            payload["schedule"],
            payload["measure_start"],
            full_sweep=payload["full_sweep"],
        )
        audit = payload["audit"]
        kill_cycle = payload.get("kill_cycle")
        slow_seconds = payload.get("slow_seconds")
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "front":
                cycle = message[1]
                if kill_cycle is not None and cycle >= kill_cycle:
                    os._exit(87)
                if slow_seconds:
                    time.sleep(slow_seconds)
                conn.send(("front_done", cycle, sim.front(cycle)))
            elif kind == "alloc":
                _, cycle, inbox = message
                delta, commit = sim.alloc(cycle, inbox)
                audit_payload = sim.audit_payload(cycle) if audit else None
                conn.send(("alloc_done", cycle, delta, commit, audit_payload))
            elif kind == "census":
                conn.send(("census_done", sim.survivors(message[1])))
            elif kind == "finish":
                conn.send(("final", sim.finish(message[1])))
                conn.close()
                return
            else:  # pragma: no cover - protocol future-proofing
                raise RuntimeError(f"unknown coordinator message {kind!r}")
    except BaseException as exc:  # noqa: BLE001 - report, then die
        try:
            conn.send(
                ("error", type(exc).__name__, str(exc), traceback.format_exc())
            )
        except Exception:  # pragma: no cover - coordinator already gone
            pass


class _InlineTile:
    """Drives a TileSimulator in-process (debugging / fast tests).

    Protocol-identical to :class:`_ProcessTile` — the same payloads and
    replies — minus the pipes, so equivalence tests can cover the
    protocol densely without paying process start per cell.
    """

    def __init__(self, index: int, payload: dict) -> None:
        self.index = index
        self.sim = TileSimulator(
            payload["config"],
            payload["rects"],
            payload["tile"],
            payload["schedule"],
            payload["measure_start"],
            full_sweep=payload["full_sweep"],
        )
        self._audit = payload["audit"]
        self._pending = None

    def send_front(self, cycle: int) -> None:
        self._pending = ("front_done", cycle, self.sim.front(cycle))

    def recv_front(self, cycle: int):
        _, _, delta = self._pending
        return delta

    def send_alloc(self, cycle: int, inbox) -> None:
        delta, commit = self.sim.alloc(cycle, inbox)
        audit_payload = self.sim.audit_payload(cycle) if self._audit else None
        self._pending = ("alloc_done", cycle, delta, commit, audit_payload)

    def recv_alloc(self, cycle: int):
        _, _, delta, commit, audit_payload = self._pending
        return delta, commit, audit_payload

    def census(self, cycle: int):
        return self.sim.survivors(cycle)

    def finish(self, end_cycle: int):
        return self.sim.finish(end_cycle)

    def shutdown(self) -> None:
        self._pending = None


class _ProcessTile:
    """One worker process with hang/crash supervision."""

    def __init__(self, index: int, payload: dict, timeout: float) -> None:
        self.index = index
        self.timeout = timeout
        context = worker_context()
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_tile_worker, args=(child, payload), daemon=True
        )
        self.process.start()
        child.close()

    def _fail(self, error_type: str, message: str) -> "ShardedExecutionError":
        from repro.harness.resilient import JobFailure

        return ShardedExecutionError(
            JobFailure(
                index=self.index,
                kind="fatal",
                error_type=error_type,
                message=message,
                attempts=1,
            )
        )

    def _recv(self, expected: str, cycle: int | None):
        deadline = time.monotonic() + self.timeout
        while not self.conn.poll(0.05):
            if not self.process.is_alive():
                raise self._fail(
                    "ShardWorkerCrash",
                    f"tile {self.index} worker exited with code "
                    f"{self.process.exitcode} before replying to "
                    f"{expected!r} (cycle {cycle})",
                )
            if time.monotonic() > deadline:
                raise self._fail(
                    "ShardWorkerTimeout",
                    f"tile {self.index} worker sent no {expected!r} reply "
                    f"within {self.timeout:.0f}s (cycle {cycle})",
                )
        try:
            message = self.conn.recv()
        except (EOFError, OSError):
            # EOF: the worker closed its end.  OSError (connection
            # reset): it died with our last message still unread.
            # Either can arrive before the exit code does (under the
            # fork server it travels through the server), so wait for it.
            self.process.join(timeout=_REAP_TIMEOUT)
            raise self._fail(
                "ShardWorkerCrash",
                f"tile {self.index} worker closed its pipe mid-protocol "
                f"(exit code {self.process.exitcode}, cycle {cycle})",
            ) from None
        if message[0] == "error":
            _, error_type, detail, trace = message
            raise self._fail(
                error_type, f"{detail}\n--- worker traceback ---\n{trace}"
            )
        if message[0] != expected:  # pragma: no cover - protocol guard
            raise self._fail(
                "ShardProtocolError",
                f"expected {expected!r}, got {message[0]!r}",
            )
        return message

    def send_front(self, cycle: int) -> None:
        self.conn.send(("front", cycle))

    def recv_front(self, cycle: int):
        return self._recv("front_done", cycle)[2]

    def send_alloc(self, cycle: int, inbox) -> None:
        self.conn.send(("alloc", cycle, inbox))

    def recv_alloc(self, cycle: int):
        message = self._recv("alloc_done", cycle)
        return message[2], message[3], message[4]

    def census(self, cycle: int):
        self.conn.send(("census", cycle))
        return self._recv("census_done", cycle)[1]

    def finish(self, end_cycle: int):
        self.conn.send(("finish", end_cycle))
        return self._recv("final", end_cycle)[1]

    def shutdown(self) -> None:
        try:
            self.conn.close()
        except Exception:  # pragma: no cover - already closed
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=_REAP_TIMEOUT)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------


@dataclass
class _ChaosHooks:
    """Deterministic failure injection for the sharded tests/CI grid."""

    #: (tile, cycle): that tile's worker hard-exits at the cycle.
    kill_tile: tuple[int, int] | None = None
    #: (tile, seconds): sleep injected into every front phase.
    slow_tile: tuple[int, float] | None = None
    #: 1-indexed ordinal of a boundary flit message to silently drop
    #: (coordinator-side), for proving the conservation ledger trips.
    drop_flit: int | None = None


def run_sharded_simulation(
    config: SimulationConfig,
    shards=None,
    *,
    traffic=None,
    faults=None,
    schedule=None,
    full_sweep: bool = False,
    progress=None,
    progress_every: int = 5000,
    inline: bool = False,
    tile_timeout: float = DEFAULT_TILE_TIMEOUT,
    _chaos: _ChaosHooks | None = None,
) -> SimulationResult:
    """Run ``config`` sharded into ``shards`` tiles; bit-identical result.

    ``shards`` defaults to ``config.shards``.  ``inline=True`` drives
    the tiles in-process through the identical protocol (no worker
    processes) — the debugging/testing mode.  ``tile_timeout`` bounds
    how long the coordinator waits for any one phase reply before
    declaring the worker hung.
    """
    if shards is None:
        shards = config.shards
    if shards is None:
        raise ValueError("no shard spec: pass shards=... or set config.shards")
    shards = parse_shards(shards)
    ensure_sharded_supported(config, traffic, faults, schedule)
    if shards == (1, 1):
        return Simulator(config, full_sweep=full_sweep).run(
            progress=progress, progress_every=progress_every
        )
    plan = ShardPlan.plan(config, shards)
    if not inline:
        # The executor's rule for "may this process have children":
        # sweep-pool workers are daemonic and a stdin parent has no
        # entry point for a child to replay.  The inline driver runs
        # the identical protocol in-process, so sharded configs stay
        # usable (and bit-identical) there.
        fallback = pool_fallback_reason(plan.num_tiles)
        if fallback is not None:
            warn_pool_fallback(fallback)
            inline = True
    entries, measure_start = build_generation_schedule(config)
    per_tile_schedule: list[list[tuple]] = [[] for _ in plan.rects]
    for entry in entries:
        per_tile_schedule[plan.tile_of(entry[1], entry[2])].append(entry)
    #: entry cycles in creation order, for O(log n) generated-by-cycle.
    entry_cycles = [entry[0] for entry in entries]

    chaos = _chaos or _ChaosHooks()
    payload_base = {
        "config": config,
        "rects": [(r.x0, r.y0, r.x1, r.y1) for r in plan.rects],
        "measure_start": measure_start,
        "full_sweep": full_sweep,
        "audit": config.audit,
    }
    drivers = []
    ledger = None
    if config.audit:
        from repro.audit.sharded import BoundaryLedger

        ledger = BoundaryLedger(plan, config.flits_per_packet)
    try:
        for index in range(plan.num_tiles):
            payload = dict(payload_base)
            payload["tile"] = index
            payload["schedule"] = per_tile_schedule[index]
            if chaos.kill_tile is not None and chaos.kill_tile[0] == index:
                payload["kill_cycle"] = chaos.kill_tile[1]
            if chaos.slow_tile is not None and chaos.slow_tile[0] == index:
                payload["slow_seconds"] = chaos.slow_tile[1]
            if inline:
                drivers.append(_InlineTile(index, payload))
            else:
                drivers.append(_ProcessTile(index, payload, tile_timeout))
        coordinator = _Coordinator(
            config, plan, drivers, entry_cycles, ledger, chaos.drop_flit
        )
        end_cycle = drive(coordinator, progress, progress_every)
        finals = [driver.finish(end_cycle) for driver in drivers]
        if ledger is not None:
            ledger.final_check(
                end_cycle,
                coordinator.generated,
                coordinator.audits,
                drained=coordinator.outstanding == 0
                and coordinator.generated >= config.total_packets,
            )
        return _merge_result(config, finals, coordinator.generated, end_cycle + 1)
    finally:
        for driver in drivers:
            driver.shutdown()


class _Coordinator:
    """The sharded engine :func:`~repro.core.runloop.drive` steps.

    One ``step`` takes every tile through both halves of the cycle and
    routes the cross-tile deltas between them; the run loop's counts
    come from the generation oracle and the tiles' commits.
    """

    #: Sharded execution is fault-free (ensure_sharded_supported).
    has_faults = False

    def __init__(self, config, plan, drivers, entry_cycles, ledger, drop_flit):
        self.config = config
        self.plan = plan
        self.drivers = drivers
        self.entry_cycles = entry_cycles
        self.ledger = ledger
        #: Chaos: ordinal of the one boundary flit message to lose.
        self.drop_flit = drop_flit
        self.flit_messages = 0
        #: tile -> deltas routed to it since its last alloc grant.
        self.pending: dict[int, dict] = {}
        self.commits: list[dict | None] = [None] * plan.num_tiles
        self.audits: list[dict | None] = [None] * plan.num_tiles
        self.generated = 0
        self.outstanding = 0
        self.moves = 0

    def step(self, cycle: int) -> None:
        drivers = self.drivers
        for driver in drivers:
            driver.send_front(cycle)
        for driver in drivers:
            self._route(driver.recv_front(cycle))
        for wave in self.plan.waves:
            for index in wave:
                drivers[index].send_alloc(cycle, self.pending.pop(index, None))
            for index in wave:
                delta, commit, audit_payload = drivers[index].recv_alloc(cycle)
                self.commits[index] = commit
                self.audits[index] = audit_payload
                self._route(delta)
        commits = self.commits
        self.generated = bisect_right(self.entry_cycles, cycle)
        self.outstanding = self.generated - sum(
            commit["delivered"] + commit["dropped"] for commit in commits
        )
        self.moves = sum(commit["moves"] for commit in commits)
        if self.ledger is not None:
            self.ledger.check(cycle, self.generated, self.audits)

    def _route(self, delta) -> None:
        """Merge one tile's outgoing delta into the per-tile inboxes."""
        if not delta:
            return
        for peer, box in delta.items():
            inbox = delta_box(self.pending, peer)
            for key in ("owner", "reserve", "release"):
                inbox[key].extend(box[key])
            for message in box["flits"]:
                self.flit_messages += 1
                if self.flit_messages == self.drop_flit:
                    continue  # chaos: the ledger must notice the loss
                if self.ledger is not None:
                    self.ledger.note_sent(peer, 1)
                inbox["flits"].append(message)

    def stranded_census(self, cycle: int) -> StrandedCensus:
        return StrandedCensus.of(
            self.outstanding,
            cycle,
            [
                (NodeId(x, y), created)
                for driver in self.drivers
                for _pid, _measured, created, x, y in driver.census(cycle)
            ],
        )


def _merge_result(config, finals, generated: int, cycles: int) -> SimulationResult:
    stats = StatsCollector.merge([final["stats"] for final in finals])
    # Survivors: the reference drops everything still queued or buffered
    # at termination, each packet once however often the walk met it.
    survivors = {
        entry[0]: entry[1] for final in finals for entry in final["survivors"]
    }
    for measured in survivors.values():
        stats.packet_dropped(None, measured, DropReason.UNDELIVERED)
    return SimulationResult.from_stats(
        config,
        stats,
        cycles=cycles,
        generated=generated,
        tile_scheduler=[final["stats"].scheduler for final in finals],
    )


# --------------------------------------------------------------------------
# CLI: `python -m repro shards` — single sharded runs and the equivalence
# grid the scaling-smoke CI lane executes.
# --------------------------------------------------------------------------

#: (size, shards, router, routing, full_sweep, packets, warmup, rate)
#: Every cell is run sharded (worker processes) and unsharded, and the
#: two result records must match field-for-field.
EQUIVALENCE_GRID: tuple[tuple, ...] = (
    (4, (1, 2), "roco", "xy", False, 120, 30, 0.2),
    (4, (1, 2), "generic", "xy", False, 120, 30, 0.2),
    (4, (2, 2), "roco", "xy-yx", False, 120, 30, 0.2),
    (4, (2, 2), "generic", "xy-yx", False, 120, 30, 0.2),
    (8, (1, 2), "roco", "xy", False, 200, 60, 0.15),
    (8, (1, 2), "generic", "xy", False, 200, 60, 0.15),
    (8, (2, 2), "roco", "xy", False, 200, 60, 0.15),
    (8, (2, 2), "generic", "xy", False, 200, 60, 0.15),
    (8, (2, 2), "roco", "xy", True, 200, 60, 0.15),
    (8, (2, 2), "generic", "xy", True, 200, 60, 0.15),
    (16, (2, 2), "roco", "xy", False, 200, 50, 0.1),
)


def _grid_config(cell) -> SimulationConfig:
    size, _shards, router, routing, _sweep, packets, warmup, rate = cell
    return SimulationConfig(
        width=size,
        height=size,
        router=router,
        routing=routing,
        traffic="uniform",
        injection_rate=rate,
        warmup_packets=warmup,
        measure_packets=packets,
        seed=7,
    )


def compare_records(reference: SimulationResult, sharded: SimulationResult):
    """Field-level diff of two runs; empty list means bit-identical."""
    from repro.harness.export import result_record

    mismatches = []
    ref_record = result_record(reference)
    shard_record = result_record(sharded)
    for field in ref_record:
        if ref_record[field] != shard_record[field]:
            mismatches.append(
                f"{field}: reference={ref_record[field]!r} "
                f"sharded={shard_record[field]!r}"
            )
    if reference.scheduler != sharded.scheduler:
        mismatches.append(
            f"scheduler: reference={reference.scheduler!r} "
            f"sharded={sharded.scheduler!r}"
        )
    for field in ("generated_packets", "total_delivered", "total_dropped"):
        ref_value = getattr(reference, field)
        shard_value = getattr(sharded, field)
        if ref_value != shard_value:
            mismatches.append(
                f"{field}: reference={ref_value!r} sharded={shard_value!r}"
            )
    return mismatches


def equivalence_grid(cells=EQUIVALENCE_GRID, *, inline: bool = False, out=print):
    """Run the sharded-vs-reference grid; returns the number of failures.

    Each cell simulates the same configuration twice — once through the
    plain :class:`Simulator`, once through worker-process tiles — and
    asserts record-level identity (latency percentiles, energy, per-drop
    accounting, scheduler counters...).  This is the check the CI
    ``scaling-smoke`` job runs.
    """
    failures = 0
    for cell in cells:
        size, shards, router, routing, full_sweep, *_ = cell
        label = (
            f"{size}x{size} {shards[0]}x{shards[1]} {router} {routing} "
            f"{'full-sweep' if full_sweep else 'event-driven'}"
        )
        config = _grid_config(cell)
        start = time.monotonic()
        reference = Simulator(config, full_sweep=full_sweep).run()
        sharded = run_sharded_simulation(
            config, shards, full_sweep=full_sweep, inline=inline
        )
        elapsed = time.monotonic() - start
        mismatches = compare_records(reference, sharded)
        if mismatches:
            failures += 1
            out(f"FAIL {label} ({elapsed:.1f}s)")
            for line in mismatches:
                out(f"     {line}")
        else:
            out(f"PASS {label} ({elapsed:.1f}s)")
    total = len(list(cells))
    out(f"{total - failures}/{total} cells bit-identical")
    return failures


def sharded_main(argv=None) -> int:
    """``python -m repro shards`` — sharded runs and the equivalence grid."""
    import argparse

    from repro.harness.scenario import CONFIG_FLAGS, add_flags, job_from_args

    parser = argparse.ArgumentParser(
        prog="repro shards",
        description=(
            "Sharded mesh execution: run one simulation partitioned into "
            "tile worker processes, or the sharded-vs-reference "
            "equivalence grid (docs/sharded-scaling.md)"
        ),
    )
    parser.add_argument(
        "--grid",
        action="store_true",
        help="run the equivalence grid instead of a single simulation",
    )
    parser.add_argument(
        "--inline",
        action="store_true",
        help="drive tiles in-process (debugging; same protocol, no workers)",
    )
    add_flags(
        parser,
        CONFIG_FLAGS,
        omit=("--topology",),
        router=dict(choices=sorted(SHARD_ROUTERS)),
        # This parser has never restricted --traffic; an unknown name
        # is rejected when the generation oracle binds the pattern.
        traffic=dict(choices=None),
        shards=dict(default="2x2"),
    )
    parser.add_argument(
        "--full-sweep",
        action="store_true",
        help="disable the activity scheduler (sweep every router each cycle)",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="enable the cross-shard conservation ledger",
    )
    args = parser.parse_args(argv)
    if args.grid:
        return 1 if equivalence_grid(inline=args.inline) else 0
    config = job_from_args(args, audit=args.audit).config
    result = run_sharded_simulation(
        config, full_sweep=args.full_sweep, inline=args.inline
    )
    print(result.summary_line())
    print(
        f"  latency p50/p95/p99: {result.latency.p50:.1f} / "
        f"{result.latency.p95:.1f} / {result.latency.p99:.1f} cycles; "
        f"throughput {result.throughput:.3f} flits/node/cycle; "
        f"{result.cycles} cycles simulated"
    )
    for tile, counters in enumerate(result.tile_scheduler):
        print(
            f"  tile {tile}: {counters.router_steps} router steps / "
            f"{counters.router_slots} slots "
            f"(duty {counters.duty_cycle:.3f})"
        )
    return 0
