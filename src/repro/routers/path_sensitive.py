"""The Path-Sensitive router (Kim et al., DAC'05) — the paper's baseline 2.

Four destination-quadrant path sets (NE, NW, SE, SW), each holding three
VCs grouped by the direction the flit arrived from, feeding a 4x4
*decomposed* crossbar with half the crosspoints of a full crossbar: every
quadrant set reaches only its two constituent outputs (NE -> North or
East).  Look-ahead routing steers arriving flits into the right set, and
flits for the local PE are consumed on arrival (no PE path set — the same
4-port arrangement the paper assumes when sizing buffers).

Switch allocation over the decomposed crossbar walks the outputs in a
fixed order with *chained dependency between requests* (Section 3.2): a
path set matched to an earlier output cannot serve a later one, which is
why only 2 of its 24 match cases are non-blocking (Table 2).
"""

from __future__ import annotations

from repro.arbiters.round_robin import RoundRobinArbiter
from repro.core.buffer import VirtualChannel
from repro.core.types import Direction, NodeId, Packet, RoutingMode
from repro.routers.base import EJECT, BaseRouter

#: Quadrant path sets and the two outputs each one reaches.
QUADRANTS = ("NE", "NW", "SE", "SW")
QUADRANT_OUTPUTS = {
    "NE": (Direction.NORTH, Direction.EAST),
    "NW": (Direction.NORTH, Direction.WEST),
    "SE": (Direction.SOUTH, Direction.EAST),
    "SW": (Direction.SOUTH, Direction.WEST),
}

#: Arrival directions that can feed each quadrant set: a flit heading
#: North-East arrives from the South input (going North), the West input
#: (going East) or the local PE.
QUADRANT_ARRIVALS = {
    "NE": (Direction.SOUTH, Direction.WEST, Direction.LOCAL),
    "NW": (Direction.SOUTH, Direction.EAST, Direction.LOCAL),
    "SE": (Direction.NORTH, Direction.WEST, Direction.LOCAL),
    "SW": (Direction.NORTH, Direction.EAST, Direction.LOCAL),
}

#: Output arbitration order; the chained dependency follows this walk.
OUTPUT_ORDER = (Direction.NORTH, Direction.EAST, Direction.SOUTH, Direction.WEST)


#: (path-set index, output) -> which of the set's two local arbiters
#: serves that crosspoint; pairs absent here have no crosspoint.
_CROSSPOINT_SLOT = {
    (q_index, out_dir): slot
    for q_index, quadrant in enumerate(QUADRANTS)
    for slot, out_dir in enumerate(QUADRANT_OUTPUTS[quadrant])
}

#: Output -> indices of the two path sets that can feed it, in
#: QUADRANTS order (the line order of that output's 2:1 arbiter).
_FEEDERS = {
    out_dir: tuple(
        q_index
        for q_index, quadrant in enumerate(QUADRANTS)
        if out_dir in QUADRANT_OUTPUTS[quadrant]
    )
    for out_dir in OUTPUT_ORDER
}

#: Quadrant pairs able to serve an axis-aligned destination.
_AXIS_QUADRANTS = {
    "N": ("NE", "NW"),
    "S": ("SE", "SW"),
    "E": ("NE", "SE"),
    "W": ("NW", "SW"),
}


def quadrant_of(
    node: NodeId, dest: NodeId, input_dir: Direction = Direction.LOCAL
) -> str:
    """Destination quadrant of ``dest`` seen from ``node``.

    Axis-aligned destinations sit on the boundary between two quadrant
    sets; the set that can actually admit the flit depends on where it
    arrives from (a pure-South flit that was travelling East arrives on
    the West input, which only the SE set accepts).  Transitions between
    quadrant classes only ever follow monotone coordinate movement, so
    the class dependency order stays acyclic and deadlock-free.
    """
    ns = "N" if dest.y < node.y else ("S" if dest.y > node.y else "")
    ew = "E" if dest.x > node.x else ("W" if dest.x < node.x else "")
    if ns and ew:
        return ns + ew
    if not ns and not ew:
        raise ValueError(f"destination {dest} equals current node {node}")
    for quadrant in _AXIS_QUADRANTS[ns or ew]:
        if input_dir in QUADRANT_ARRIVALS[quadrant]:
            return quadrant
    raise ValueError(
        f"no quadrant set serves dest {dest} from {node} via {input_dir.name}"
    )


class PathSensitiveRouter(BaseRouter):
    """4-port quadrant-path-set router with a decomposed crossbar."""

    architecture = "path_sensitive"

    def __init__(self, node: NodeId, network) -> None:
        super().__init__(node, network)
        depth = self.config.buffer_depth
        self.path_sets: dict[str, list[VirtualChannel]] = {}
        self._vcs: list[VirtualChannel] = []
        for q_index, quadrant in enumerate(QUADRANTS):
            vcs = []
            # Three VCs per set: one per possible previous-hop direction
            # (the DAC'05 grouping), with the local group doubling as a
            # shared overflow so a burst from one direction can use it.
            for i, arrival in enumerate(QUADRANT_ARRIVALS[quadrant]):
                vc = VirtualChannel(
                    port=q_index, index=i, depth=depth, vc_class=quadrant
                )
                if arrival is Direction.LOCAL:
                    vc.accepts_from = QUADRANT_ARRIVALS[quadrant]
                else:
                    vc.accepts_from = (arrival,)
                vc.input_dir = arrival
                vcs.append(vc)
            self.path_sets[quadrant] = vcs
            self._vcs.extend(vcs)
        #: Two local arbiters per set (one per reachable output).
        self._set_arbiters = {
            q: [RoundRobinArbiter(3), RoundRobinArbiter(3)] for q in QUADRANTS
        }
        #: One 2:1 arbiter per output (two candidate quadrant sets each).
        self._output_arbiters = {d: RoundRobinArbiter(2) for d in OUTPUT_ORDER}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def all_vcs(self) -> list[VirtualChannel]:
        return self._vcs

    def vc_candidates(
        self, input_dir: Direction, packet: Packet, escape_only: bool = False
    ) -> list[tuple[object, Direction | None]]:
        if self.dead:
            return []
        if packet.dest == self.node:
            return [(EJECT, Direction.LOCAL)]
        try:
            quadrant = quadrant_of(self.node, packet.dest, input_dir)
        except ValueError:
            # No quadrant set serves this (arrival, destination) pair —
            # only reachable by non-minimal traffic, which the router
            # simply refuses to admit.
            return []
        # The look-ahead decision selects the *path set*; the concrete
        # output (one of the quadrant's two directions) is chosen locally
        # when the head reaches the front — that is where the router's
        # "routing adaptivity" lives.
        return [
            (vc, None)
            for vc in self.path_sets[quadrant]
            if input_dir in vc.accepts_from
        ]

    # ------------------------------------------------------------------
    # Injection interface
    # ------------------------------------------------------------------

    def injection_vc_for(self, packet: Packet):
        if self.dead:
            return None
        quadrant = quadrant_of(self.node, packet.dest)
        for vc in self.path_sets[quadrant]:
            if vc.injectable(self.network.cycle):
                # Route is selected locally once the head reaches the
                # front of its path-set VC.
                return vc, None
        return None

    def injection_possible(self, packet: Packet) -> bool:
        return not self.dead

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------

    def allocate(self, cycle: int) -> None:
        if self.dead:
            return
        # Occupancy first: a router step finds one to three of its 12 VCs
        # holding a flit, and an empty VC has nothing to allocate,
        # arbitrate or tally.  Every sub-phase walks ``occupied``
        # (path-set order, like ``_vcs``) and re-probes ``vc.queue``,
        # because a fault drop during VA may purge a worm mid-walk;
        # allocation never *adds* a flit.  An empty list means the router
        # is awake only for an arrival still on the wire.
        occupied = [vc for vc in self._vcs if vc.queue]
        if not occupied:
            return
        has_faults = self.network.has_faults
        lookahead = self.config.lookahead_routing
        va_requests: list = []
        newly_allocated: list[VirtualChannel] = []
        for vc in occupied:
            if has_faults:
                self._discard_dropped_front(vc, cycle)
            queue = vc.queue
            if not queue:
                continue
            front = queue[0]
            if not front.is_head:
                continue
            if vc.active_pid is None:
                vc.active_pid = front.packet.pid
            if vc.out_vc is None:
                if not lookahead and front.arrival >= cycle:
                    continue  # ablation: RC charged post-arrival
                self._request_worm_allocation(vc, cycle, va_requests)
                newly_allocated.append(vc)
        if va_requests:
            self._resolve_vc_allocations(va_requests, cycle)

        # Switch readiness is decided once per occupied VC and shared by
        # the contention tally and the local SA stage.
        ready = [vc for vc in occupied if self._vc_ready_for_switch(vc, cycle)]
        self._tally_contention(occupied)
        if not ready:
            return

        # Local stage: each path set elects one ready VC per reachable
        # output (two v:1 arbiters per set).  The global stage then walks
        # the outputs in fixed order with chained dependency — a set
        # matched to an earlier output cannot serve a later one, the
        # structural reason only 2 of its 24 match cases are non-blocking
        # (Table 2).
        contenders: dict[tuple[int, Direction], list[VirtualChannel]] = {}
        for vc in ready:
            contenders.setdefault((vc.port, vc.out_dir), []).append(vc)
        local: dict[tuple[int, Direction], VirtualChannel] = {}
        for key, group in contenders.items():
            slot = _CROSSPOINT_SLOT.get(key)
            if slot is None:
                continue  # the decomposed crossbar has no such crosspoint
            self.network.stats.activity.sa_requests += len(group)
            # Separable-SA speculation rule (as in the generic router):
            # worms allocated only this cycle yield to non-speculative
            # requests.  RoCo's mirror allocator has no such cross-port
            # priority conflict.
            pool = [vc for vc in group if vc not in newly_allocated] or group
            lines = [False, False, False]
            for vc in pool:
                lines[vc.index] = True
            quadrant = QUADRANTS[key[0]]
            winner = self._set_arbiters[quadrant][slot].grant(lines)
            local[key] = self.path_sets[quadrant][winner]

        granted_sets: list[int] = []
        for out_dir in OUTPUT_ORDER:
            feeders = _FEEDERS[out_dir]
            requesting = [q for q in feeders if (q, out_dir) in local]
            if not requesting:
                continue
            # Chained dependency: a set matched earlier in the walk may
            # only pick up a *second* output opportunistically, when no
            # unmatched set wants it — the global arbitration signal has
            # already been consumed by its first grant.
            pool = [q for q in requesting if q not in granted_sets] or requesting
            lines = [q in pool for q in feeders]
            quadrant = feeders[self._output_arbiters[out_dir].grant(lines)]
            self._commit_switch_grant(local[(quadrant, out_dir)], cycle)
            granted_sets.append(quadrant)

    def _request_worm_allocation(
        self, vc: VirtualChannel, cycle: int, va_requests: list
    ) -> None:
        """Local route selection within the quadrant, then VA.

        Minimal candidates are ordered by downstream buffer headroom —
        the congestion signal behind the router's adaptivity.  No RC
        cycle is charged: look-ahead already steered the flit into the
        right path set.
        """
        if vc.verdict is not None and self._blocked_again(vc, cycle):
            return
        front = vc.front
        packet = front.packet
        if packet.dest == self.node:
            self.network.eject(vc.pop(cycle), self.node, cycle, early=True)
            return
        candidates = self.routing.candidates(self.node, packet)
        all_hard = True
        attempts = 0
        for out_dir in self._order_by_headroom(candidates, packet, cycle):
            attempts += 1
            outcome = self._request_vc_allocation(vc, out_dir, front, va_requests)
            if outcome:
                return
            if outcome is False:
                all_hard = False
        if all_hard:
            self._hard_blocked(vc, cycle, attempts)
        else:
            self.clear_stall(vc)

    def _order_by_headroom(
        self, candidates, packet: Packet, cycle: int
    ) -> list[Direction]:
        if len(candidates) <= 1:
            return list(candidates)
        scored = []
        for d in candidates:
            port = self.outputs.get(d)
            if port is None or port.dead:
                continue
            admission = port.downstream.vc_candidates(port.input_dir, packet)
            free = sum(
                vc.credits(cycle)
                for vc, _ in admission
                if isinstance(vc, VirtualChannel) and vc.owner_pid is None
            )
            scored.append((-free, d))
        scored.sort(key=lambda pair: pair[0])
        return [d for _, d in scored] or list(candidates)
