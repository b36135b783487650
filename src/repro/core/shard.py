"""Per-tile execution engine for sharded mesh simulation.

A sharded run (repro.harness.sharded, docs/sharded-scaling.md) splits
the mesh into rectangular tiles, each stepped by its own
:class:`TileSimulator`.  Tiles never share object state; everything that
crosses a tile boundary travels as plain-tuple messages routed by the
coordinator once per phase:

* **flit messages** — flits launched onto a boundary link during switch
  traversal.  The 2-cycle link delay (``LINK_DELAY``) is the
  conservative lookahead horizon: a flit launched during cycle ``t``
  cannot be observed by its receiver before ``t + 2``, so shipping it
  with the end-of-cycle exchange always arrives in time.
* **VC mirror deltas** — each virtual channel adjacent to a cut is
  *authoritative* on the tile that owns its router and *mirrored* (on a
  ghost router) on the one neighbouring tile whose routers arbitrate
  for it.  Owner claims/releases, slot reservations and credit releases
  are harvested as per-phase diffs and applied on the peer before its
  next allocate phase, reproducing the reference's same-cycle
  visibility order exactly (see the wave ordering in the harness).

A tile calls the two halves of :meth:`Network.step` itself:
``step_front`` runs delivery + switch traversal (whose cross-tile
effects have the 2-cycle lookahead), ``step_alloc`` runs allocation
(whose cross-tile effects are ordered by the coordinator's tile DAG).
They are the reference's own methods, inherited, so a 1x1-tiled run
*is* the reference run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.buffer import CREDIT_LATENCY
from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.runloop import live_packets
from repro.core.simulator import Source
from repro.core.types import CARDINALS, Direction, Flit, FlitType, NodeId, Packet
from repro.routers.base import EJECT

#: Wire encoding of the EJECT pseudo-target in flit messages.
EJECT_HINT = -1


class ShardProtocolError(RuntimeError):
    """A cross-tile message stream violated the sharding protocol.

    Raised for transitions that are impossible in a fault-free run
    (credit refunds, conflicting owner claims, flits below the
    lookahead horizon) — always a bug in the sharding layer, never a
    property of the simulated workload.
    """


@dataclass(frozen=True)
class TileRect:
    """Half-open rectangle of mesh nodes ``[x0, x1) x [y0, y1)``."""

    x0: int
    y0: int
    x1: int
    y1: int

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    def contains(self, node: NodeId) -> bool:
        return self.x0 <= node.x < self.x1 and self.y0 <= node.y < self.y1

    def nodes(self) -> list[NodeId]:
        return [
            NodeId(x, y)
            for y in range(self.y0, self.y1)
            for x in range(self.x0, self.x1)
        ]

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return f"[{self.x0},{self.x1})x[{self.y0},{self.y1})"


class TileNetwork(Network):
    """A :class:`Network` restricted to one tile plus a ghost halo.

    Routers inside the rectangle are real: they are wired, stepped and
    counted exactly like the reference.  Each off-tile neighbour of a
    boundary router exists as a *ghost*: a fully-constructed router of
    the same architecture that is never wired and never stepped.  Ghosts
    give boundary routers authentic downstream state to arbitrate
    against — their VCs are the mirrors the coordinator keeps in sync —
    and their output links carry remotely-launched flits into the tile.
    """

    def __init__(self, config: SimulationConfig, rect: TileRect) -> None:
        self.rect = rect
        self.ghosts: dict[NodeId, object] = {}
        super().__init__(config)

    def _build_routers(self, make_router) -> None:
        rect = self.rect
        for y in range(rect.y0, rect.y1):
            for x in range(rect.x0, rect.x1):
                node = NodeId(x, y)
                self.routers[node] = make_router(self.config.router, node, self)
        for node in list(self.routers):
            for direction in CARDINALS:
                neighbor = self.neighbor_of(node, direction)
                if (
                    neighbor is None
                    or rect.contains(neighbor)
                    or neighbor in self.ghosts
                ):
                    continue
                ghost = make_router(self.config.router, neighbor, self)
                ghost._shard_ghost = True
                self.ghosts[neighbor] = ghost

    def router_at(self, node: NodeId):
        router = self.routers.get(node)
        if router is not None:
            return router
        return self.ghosts[node]

    def schedule_wake(self, router, input_dir: Direction, cycle: int) -> None:
        # A boundary router launching towards a ghost must not enqueue
        # a wake for it: ghosts are never stepped, and their egress
        # links are drained by the coordinator exchange instead.
        if getattr(router, "_shard_ghost", False):
            return
        super().schedule_wake(router, input_dir, cycle)

    def teardown(self) -> None:
        super().teardown()
        for ghost in self.ghosts.values():
            ghost.teardown()


class _MirrorBinding:
    """One cut-adjacent VC and its synchronization bookkeeping."""

    __slots__ = ("vc", "addr", "peer", "authoritative", "_owner_snap",
                 "_avail_snap", "_release_cycle", "_release_sent")

    def __init__(self, vc, addr, peer, authoritative):
        self.vc = vc
        #: ``(node_x, node_y, position in router.all_vcs())`` — the
        #: address both sides resolve against their own router objects.
        self.addr = addr
        self.peer = peer
        self.authoritative = authoritative
        self._owner_snap = None
        self._avail_snap = 0
        self._release_cycle = -1
        self._release_sent = 0


def delta_box(out: dict, peer: int) -> dict:
    """The message box for tile ``peer`` within delta ``out``."""
    inbox = out.get(peer)
    if inbox is None:
        inbox = {"flits": [], "owner": [], "reserve": [], "release": []}
        out[peer] = inbox
    return inbox


class TileSimulator:
    """Drives one tile of a sharded run, one phase at a time.

    The coordinator calls :meth:`front` (generation + injection +
    delivery + traversal) on every tile, routes the returned deltas,
    then calls :meth:`alloc` tile-by-tile in DAG order with each tile's
    accumulated inbox.  All remote state lands *between* the local
    phase brackets, so the per-phase diffs never echo remote events
    back to their origin.
    """

    def __init__(
        self,
        config: SimulationConfig,
        rects: list[tuple[int, int, int, int]],
        tile_index: int,
        schedule: list[tuple],
        measure_start_cycle: int | None,
    ) -> None:
        self.config = config
        self.tile_index = tile_index
        self._rects = [TileRect(*r) for r in rects]
        rect = self._rects[tile_index]
        self.rect = rect
        self.network = TileNetwork(config, rect)
        self.network.wire()
        self.sources = {
            node: Source(node, router)
            for node, router in self.network.routers.items()
        }
        self._source_list = list(self.sources.values())
        #: pid -> Packet for every packet this tile has seen; keeps worm
        #: identity stable when body flits arrive after their head.
        self.registry: dict[int, Packet] = {}
        #: (cycle, x, y, pid, dest_x, dest_y, yx_first, measured) in
        #: global creation order, restricted to this tile's sources.
        self.schedule = deque(schedule)
        self.measure_start_cycle = measure_start_cycle
        self._bindings: list[_MirrorBinding] = []
        self._build_bindings()
        self._addr_of = {id(b.vc): b.addr for b in self._bindings}
        self._egress = self._build_egress()
        self._vc_cache: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Boundary discovery
    # ------------------------------------------------------------------

    def _tile_of(self, node: NodeId) -> int:
        for index, rect in enumerate(self._rects):
            if rect.contains(node):
                return index
        raise ShardProtocolError(f"node {node} outside every tile")

    def _build_bindings(self) -> None:
        rect = self.rect
        bound: set[int] = set()
        for node, router in self.network.routers.items():
            for direction in CARDINALS:
                neighbor = self.network.neighbor_of(node, direction)
                if neighbor is None or rect.contains(neighbor):
                    continue
                # VCs of ours admitting flits from the off-tile
                # neighbour: claimed/reserved by its tile's routers.
                self._bind(router, direction, self._tile_of(neighbor),
                           authoritative=True, bound=bound)
        for node, ghost in self.network.ghosts.items():
            peer = self._tile_of(node)
            for direction in CARDINALS:
                neighbor = self.network.neighbor_of(node, direction)
                if neighbor is None or not rect.contains(neighbor):
                    continue
                # Ghost VCs admitting flits from our side: the mirrors
                # our boundary routers arbitrate against.
                self._bind(ghost, direction, peer,
                           authoritative=False, bound=bound)

    def _bind(self, router, input_dir, peer, authoritative, bound) -> None:
        for position, vc in enumerate(router.all_vcs()):
            if input_dir not in vc.accepts_from:
                continue
            if id(vc) in bound:
                raise ShardProtocolError(
                    f"VC {router.node}#{position} would be mirrored on two "
                    "tiles; the shard planner must keep every tile at least "
                    "two nodes wide along each split axis"
                )
            bound.add(id(vc))
            addr = (router.node.x, router.node.y, position)
            self._bindings.append(_MirrorBinding(vc, addr, peer, authoritative))

    def _build_egress(self) -> list[tuple]:
        egress = []
        for node, router in self.network.routers.items():
            for direction, port in router.outputs.items():
                if direction is Direction.LOCAL:
                    continue
                neighbor = self.network.neighbor_of(node, direction)
                if neighbor is None or self.rect.contains(neighbor):
                    continue
                egress.append(
                    (port, self._tile_of(neighbor), neighbor.x, neighbor.y,
                     int(port.input_dir))
                )
        return egress

    def _vc_at(self, addr: tuple) -> object:
        vc = self._vc_cache.get(addr)
        if vc is None:
            x, y, position = addr
            vc = self.network.router_at(NodeId(x, y)).all_vcs()[position]
            self._vc_cache[addr] = vc
        return vc

    # ------------------------------------------------------------------
    # Phase drivers
    # ------------------------------------------------------------------

    def front(self, cycle: int) -> dict:
        """Generation, injection, delivery, traversal; returns deltas."""
        network = self.network
        if cycle == self.measure_start_cycle:
            network.stats.start_measurement(cycle)
        self._generate(cycle)
        for source in self._source_list:
            if source.queue or source.current:
                source.inject(network, cycle)
        self._snap(cycle)
        network.step_front(cycle)
        out: dict = {}
        self._harvest_flits(out)
        self._harvest_bindings(cycle, out)
        return out

    def alloc(self, cycle: int, inbox: dict | None) -> tuple[dict, dict]:
        """Apply the routed inbox, allocate; returns (deltas, commit)."""
        if inbox:
            self.apply_events(inbox, cycle)
        self._snap(cycle)
        network = self.network
        network.step_alloc(cycle)
        out: dict = {}
        self._harvest_bindings(cycle, out)
        stats = network.stats
        activity = stats.activity
        commit = {
            "moves": activity.crossbar_traversals + activity.buffer_writes,
            "delivered": stats.total_delivered,
            "dropped": stats.total_dropped,
        }
        return out, commit

    def _generate(self, cycle: int) -> None:
        schedule = self.schedule
        stats = self.network.stats
        flits_per_packet = self.config.flits_per_packet
        while schedule and schedule[0][0] == cycle:
            _, x, y, pid, dest_x, dest_y, yx_first, measured = schedule.popleft()
            packet = Packet(
                pid=pid,
                src=NodeId(x, y),
                dest=NodeId(dest_x, dest_y),
                size=flits_per_packet,
                created_cycle=cycle,
            )
            packet.yx_first = yx_first
            packet.measured = measured
            if measured:
                stats.injected_packets += 1
            self.registry[pid] = packet
            self.sources[packet.src].queue.append(packet)

    # ------------------------------------------------------------------
    # Delta harvest (phase brackets)
    # ------------------------------------------------------------------

    def _snap(self, cycle: int) -> None:
        for binding in self._bindings:
            vc = binding.vc
            vc._refresh(cycle)
            binding._avail_snap = vc._available
            binding._owner_snap = vc.owner_pid

    def _harvest_bindings(self, cycle: int, out: dict) -> None:
        for binding in self._bindings:
            vc = binding.vc
            vc._refresh(cycle)
            reserved = binding._avail_snap - vc._available
            if reserved < 0:
                raise ShardProtocolError(
                    f"credit refund on mirrored VC {binding.addr} at cycle "
                    f"{cycle} (fault-only transition)"
                )
            if reserved:
                delta_box(out, binding.peer)["reserve"].append((binding.addr, reserved))
            owner = vc.owner_pid
            if owner != binding._owner_snap:
                delta_box(out, binding.peer)["owner"].append((binding.addr, owner))
            if binding.authoritative:
                self._harvest_releases(binding, cycle, out)

    def _harvest_releases(self, binding, cycle: int, out: dict) -> None:
        # Pops during this cycle appended maturation entries for
        # cycle + CREDIT_LATENCY at the tail; count them exactly once
        # across the T and A scans of the same cycle.
        maturity = cycle + CREDIT_LATENCY
        total = 0
        releases = binding.vc._releases
        for when in reversed(releases):
            if when != maturity:
                break
            total += 1
        if binding._release_cycle != cycle:
            binding._release_cycle = cycle
            binding._release_sent = 0
        fresh = total - binding._release_sent
        if fresh:
            binding._release_sent = total
            delta_box(out, binding.peer)["release"].append(
                (binding.addr, maturity, fresh)
            )

    def _harvest_flits(self, out: dict) -> None:
        for port, peer, recv_x, recv_y, input_dir in self._egress:
            in_flight = port.link._in_flight
            while in_flight:
                arrival, flit = in_flight.pop(0)
                packet = flit.packet
                hint = flit.vc_hint
                if hint is EJECT:
                    encoded_hint = EJECT_HINT
                else:
                    encoded_hint = self._addr_of[id(hint)]
                lookahead = flit.lookahead_route
                delta_box(out, peer)["flits"].append((
                    packet.pid,
                    flit.seq,
                    int(flit.ftype),
                    None if lookahead is None else int(lookahead),
                    encoded_hint,
                    packet.hops,
                    arrival,
                    recv_x,
                    recv_y,
                    input_dir,
                    (packet.src.x, packet.src.y, packet.dest.x, packet.dest.y,
                     packet.size, packet.created_cycle, packet.injected_cycle,
                     packet.yx_first, packet.measured),
                ))

    # ------------------------------------------------------------------
    # Delta application (between phase brackets)
    # ------------------------------------------------------------------

    def apply_events(self, inbox: dict, cycle: int) -> None:
        for addr, owner in inbox.get("owner", ()):
            vc = self._vc_at(addr)
            if (
                owner is not None
                and vc.owner_pid is not None
                and vc.owner_pid != owner
            ):
                raise ShardProtocolError(
                    f"conflicting owner claim on VC {addr}: local p"
                    f"{vc.owner_pid} vs remote p{owner} at cycle {cycle}"
                )
            vc.owner_pid = owner
        for addr, count in inbox.get("reserve", ()):
            vc = self._vc_at(addr)
            vc._refresh(cycle)
            if vc._available < count:
                raise ShardProtocolError(
                    f"remote reservation underflows VC {addr} at cycle {cycle}"
                )
            vc._available -= count
            if self.rect.contains(NodeId(addr[0], addr[1])):
                # We are authoritative: the remote upstream reserved a
                # slot its flit will land in (expected++), exactly as a
                # local _commit_switch_grant would have.
                vc.expected += count
        for addr, maturity, count in inbox.get("release", ()):
            vc = self._vc_at(addr)
            releases = vc._releases
            if releases and releases[-1] > maturity:
                raise ShardProtocolError(
                    f"out-of-order credit release on VC {addr} at cycle {cycle}"
                )
            for _ in range(count):
                releases.append(maturity)
        for message in inbox.get("flits", ()):
            self._apply_flit(message, cycle)

    def _apply_flit(self, message: tuple, cycle: int) -> None:
        (pid, seq, ftype, lookahead, hint, hops, arrival,
         recv_x, recv_y, input_dir, packet_fields) = message
        if arrival <= cycle:
            raise ShardProtocolError(
                f"flit p{pid}s{seq} arrives at {arrival} <= current cycle "
                f"{cycle}: lookahead horizon violated"
            )
        packet = self.registry.get(pid)
        if packet is None:
            (src_x, src_y, dest_x, dest_y, size, created, injected,
             yx_first, measured) = packet_fields
            packet = Packet(
                pid=pid,
                src=NodeId(src_x, src_y),
                dest=NodeId(dest_x, dest_y),
                size=size,
                created_cycle=created,
            )
            packet.injected_cycle = injected
            packet.yx_first = yx_first
            packet.measured = measured
            self.registry[pid] = packet
        flit = Flit(packet, seq, FlitType(ftype))
        flit.lookahead_route = (
            None if lookahead is None else Direction(lookahead)
        )
        flit.vc_hint = EJECT if hint == EJECT_HINT else self._vc_at(hint)
        flit.arrival = arrival
        if flit.is_head:
            packet.hops = hops
        receiver = self.network.routers[NodeId(recv_x, recv_y)]
        direction = Direction(input_dir)
        ghost_node = self.network.neighbor_of(receiver.node, direction)
        ghost = self.network.ghosts[ghost_node]
        link = ghost.outputs[direction.opposite].link
        link._in_flight.append((arrival, flit))
        link.sends += 1
        self.network.schedule_wake(receiver, direction, arrival)

    # ------------------------------------------------------------------
    # End-of-run payload
    # ------------------------------------------------------------------

    def survivors(self, end_cycle: int) -> list[tuple]:
        """``(pid, measured, created_cycle, x, y)`` per live packet.

        This tile's stretch of the reference walk (:func:`live_packets`).
        A worm can straddle a cut and be met on both sides: the
        coordinator dedupes by pid where it counts drops.
        """
        return [
            (packet.pid, packet.measured, packet.created_cycle, node.x, node.y)
            for node, packet in live_packets(self.sources, self.network.routers)
        ]

    def teardown(self) -> None:
        """Break the cycles of this tile's graph (Network.teardown)."""
        self.network.teardown()

    def finish(self, end_cycle: int) -> dict:
        """Final per-tile payload: the stats collector + survivor walk."""
        return {"survivors": self.survivors(end_cycle), "stats": self.network.stats}
