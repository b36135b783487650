"""Sharded mesh execution: one mesh stepped as cooperating tiles.

The mesh is partitioned by a :class:`ShardPlan` into rectangular tiles,
each stepped by a :class:`~repro.core.shard.TileSimulator`.  A
coordinator drives every tile through the two halves of the cycle in
lockstep and routes all cross-tile state between them (see
docs/sharded-scaling.md for the full protocol):

1. ``front(t)`` on every tile — generation, injection, link delivery,
   switch traversal.  Flits launched onto boundary links have a 2-cycle
   lookahead (``LINK_DELAY``) before any receiver can observe them, so
   harvesting them once per cycle is always conservative.
2. ``alloc(t)`` in *anti-diagonal wave order* over the tile grid.  VC
   allocation arbitrates cross-tile (upstream routers claim VCs on the
   neighbouring tile's boundary routers), and the reference resolves
   same-cycle claim races in global row-major router order — which,
   restricted to the pairs that can actually race across a cut, is
   exactly "west tile before east tile, north tile before south tile".
   Each tile's alloc call carries every delta routed to it so far, so
   a successor tile allocates against the same owner/credit state the
   reference would have shown it.

Because both halves replay the reference phases verbatim and all
cross-tile visibility matches the reference's intra-cycle ordering, a
sharded run is **bit-identical** to the single-process run — asserted
by the ``tiles`` rows of tests/test_engines_agree.py and, up to 32x32,
by ``benchmarks/bench_sharded_scaling.py``.

Traffic is generated from a central *oracle* (:func:`build_generation_schedule`)
that replays the reference simulator's exact rng-draw order once up
front, then hands each tile its own sources' creation schedule — tiles
never touch an rng, so partitioning cannot perturb the stream.

Every tile lives in the calling process and a phase is a method call.
The allocate wave is serial by construction (a 2x1 cycle is one front
and two allocs whoever runs them), so tiles in processes of their own
cannot repay their boot and pipes at any size or tiling
(docs/sharded-scaling.md has the measurement).  ``shards=`` is an
equivalence-checked tile protocol, not a speed-up — the fast way to run
a large mesh is ``backend="soa"`` — and it behaves the same in every
parent: a script, a REPL, a daemonic sweep or serve worker.  From the
command line, ``python -m repro --shards 2x2 --audit`` runs one with the
conservation ledger on and prints each tile's scheduler counters.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass

from repro.core.config import SimulationConfig, parse_shards
from repro.core.runloop import StrandedCensus, drive, live_packets, packet_draws
from repro.core.shard import TileRect, TileSimulator, delta_box
from repro.core.simulator import SimulationResult, Simulator
from repro.core.soa.errors import BackendUnsupportedError
from repro.core.statistics import StatsCollector
from repro.core.types import DropReason, grid_nodes
from repro.traffic import make_traffic

#: Router architectures the tile engine supports (the same pair the
#: paper's comparison — and the SoA backend — covers).
SHARD_ROUTERS = ("roco", "generic")

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


def ensure_sharded_supported(config, faults=None, schedule=None):
    """Raise :class:`ShardUnsupportedError` outside the envelope.

    The envelope is: RoCo/generic routers on a fault-free mesh, any
    routing mode and traffic pattern, both schedulers, the object
    backend.  Faults are rejected because fault propagation (handshake
    repair, purges, reachability) is global and non-local to a tile.
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
            "tiles run the object engine",
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
# Coordinator
# ----------------------------------------------------------------------


def _build_tiles(config: SimulationConfig, plan: ShardPlan, full_sweep: bool):
    """``(tiles, entry_cycles)``: one simulator per rectangle of ``plan``.

    Each tile takes its own sources' stretch of the oracle's schedule
    and consumes it as the run proceeds; the whole-run entry list and
    the per-tile splits do not outlive this call.  ``entry_cycles`` are
    the creation cycles in pid order, for an O(log n)
    generated-by-cycle.
    """
    entries, measure_start = build_generation_schedule(config)
    schedules: list[list[tuple]] = [[] for _ in plan.rects]
    for entry in entries:
        schedules[plan.tile_of(entry[1], entry[2])].append(entry)
    rects = [(r.x0, r.y0, r.x1, r.y1) for r in plan.rects]
    tiles = [
        TileSimulator(
            config, rects, index, tile_schedule, measure_start, full_sweep=full_sweep
        )
        for index, tile_schedule in enumerate(schedules)
    ]
    return tiles, [entry[0] for entry in entries]


def run_sharded_simulation(
    config: SimulationConfig,
    shards=None,
    *,
    faults=None,
    schedule=None,
    full_sweep: bool = False,
    progress=None,
    progress_every: int = 5000,
    inline: bool = True,
    _drop_flit: int | None = None,
) -> SimulationResult:
    """Run ``config`` sharded into ``shards`` tiles; bit-identical result.

    ``shards`` defaults to ``config.shards``.  The tiles are stepped in
    the calling process.  ``inline`` is accepted and ignored, for one
    reason: perfbench's frozen ``shard_inline`` cell passes
    ``inline=True``.  The keyword goes when that cell does.

    ``_drop_flit`` is the tests' chaos hook: the 1-indexed ordinal of a
    boundary flit message the coordinator silently loses, which proves
    the conservation ledger live.
    """
    if shards is None:
        shards = config.shards
    if shards is None:
        raise ValueError("no shard spec: pass shards=... or set config.shards")
    shards = parse_shards(shards)
    ensure_sharded_supported(config, faults, schedule)
    if shards == (1, 1):
        sim = Simulator(config, full_sweep=full_sweep)
        try:
            return sim.run(progress=progress, progress_every=progress_every)
        finally:
            sim.teardown()
    plan = ShardPlan.plan(config, shards)
    tiles, entry_cycles = _build_tiles(config, plan, full_sweep)
    try:
        ledger = None
        if config.audit:
            from repro.audit.sharded import BoundaryLedger

            ledger = BoundaryLedger(plan, config.flits_per_packet)
        coordinator = _Coordinator(
            config, plan, tiles, entry_cycles, ledger, _drop_flit
        )
        end_cycle = drive(coordinator, progress, progress_every)
        finals = [sim.finish(end_cycle) for sim in tiles]
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
        for sim in tiles:
            sim.teardown()


class _Coordinator:
    """The sharded engine :func:`~repro.core.runloop.drive` steps.

    One ``step`` takes every tile through both halves of the cycle and
    routes the cross-tile deltas between them; the run loop's counts
    come from the generation oracle and the tiles' commits.
    """

    #: Sharded execution is fault-free (ensure_sharded_supported).
    has_faults = False

    def __init__(self, config, plan, tiles, entry_cycles, ledger, drop_flit):
        self.config = config
        self.plan = plan
        self.tiles = tiles
        self.entry_cycles = entry_cycles
        self.ledger = ledger
        #: Chaos: ordinal of the one boundary flit message to lose.
        self.drop_flit = drop_flit
        self.flit_messages = 0
        #: tile -> deltas routed to it since its last alloc.
        self.pending: dict[int, dict] = {}
        self.commits: list[dict | None] = [None] * plan.num_tiles
        self.audits: list[dict | None] = [None] * plan.num_tiles
        self.generated = 0
        self.outstanding = 0
        self.moves = 0

    def step(self, cycle: int) -> None:
        tiles = self.tiles
        for sim in tiles:
            self._route(sim.front(cycle))
        commits = self.commits
        for wave in self.plan.waves:
            for index in wave:
                sim = tiles[index]
                delta, commits[index] = sim.alloc(cycle, self.pending.pop(index, None))
                if self.ledger is not None:
                    self.audits[index] = sim.audit_payload(cycle)
                self._route(delta)
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
        """The reference walk over every tile at once: one pid set, so a
        worm straddling a cut is met once, where the reference meets it."""
        sources, routers = {}, {}
        for sim in self.tiles:
            sources.update(sim.sources)
            routers.update(sim.network.routers)
        order = sorted(routers, key=lambda node: (node.y, node.x))
        held = live_packets(
            {node: sources[node] for node in order},
            {node: routers[node] for node in order},
        )
        return StrandedCensus.of(
            self.outstanding,
            cycle,
            [(node, packet.created_cycle) for node, packet in held],
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
