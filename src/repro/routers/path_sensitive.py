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
from repro.core.types import (
    EAST,
    NORTH,
    SOUTH,
    WEST,
    Direction,
    NodeId,
    Packet,
)
from repro.routers.admission import path_sensitive_table
from repro.routers.base import BaseRouter
from repro.routers.quadrants import (
    PATH_SET_VCS,
    QUADRANT_OUTPUTS,
    QUADRANTS,
    quadrant_of,
)

#: Output arbitration order; the chained dependency follows this walk.
OUTPUT_ORDER = (NORTH, EAST, SOUTH, WEST)


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

#: (path-set index, output) -> which of the set's two local arbiters
#: serves that crosspoint, and the set's line at that output's 2:1
#: arbiter; pairs absent here have no crosspoint.
_CROSSPOINT = {
    (q_index, out_dir): (slot, _FEEDERS[out_dir].index(q_index))
    for q_index, quadrant in enumerate(QUADRANTS)
    for slot, out_dir in enumerate(QUADRANT_OUTPUTS[quadrant])
}

#: (output, mask of path sets matched earlier in the walk) -> the mask
#: of that output's 2:1 arbiter lines whose path set is among them.
_MATCHED_LINES = {
    (out_dir, matched): sum(
        1 << line for line, q_index in enumerate(feeders) if matched >> q_index & 1
    )
    for out_dir, feeders in _FEEDERS.items()
    for matched in range(1 << len(QUADRANTS))
}


class PathSensitiveRouter(BaseRouter):
    """4-port quadrant-path-set router with a decomposed crossbar."""

    architecture = "path_sensitive"

    def __init__(self, node: NodeId, network) -> None:
        super().__init__(node, network)
        depth = self.config.buffer_depth
        self.path_sets: dict[str, list[VirtualChannel]] = {q: [] for q in QUADRANTS}
        self._vcs: list[VirtualChannel] = []
        for quadrant, arrival, accepts_from in PATH_SET_VCS:
            vcs = self.path_sets[quadrant]
            vc = VirtualChannel(
                port=QUADRANTS.index(quadrant),
                index=len(vcs),
                depth=depth,
                vc_class=quadrant,
            )
            vc.router = self
            vc.accepts_from = accepts_from
            vc.input_dir = arrival
            vcs.append(vc)
            self._vcs.append(vc)
        #: The admission table every Path-Sensitive router shares.
        self._admission = path_sensitive_table()
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
        self, input_dir: Direction, packet: Packet
    ) -> list[tuple[object, Direction | None]]:
        """The admission entry of the head's key (repro.routers.admission),
        read with this router's VCs.

        The look-ahead decision selects the *path set*, so every route is
        None: the concrete output (one of the quadrant's two directions)
        is chosen locally when the head reaches the front — that is where
        the router's "routing adaptivity" lives.  A non-minimal arrival
        that no quadrant set serves has an empty entry: it is refused.
        """
        if self.dead:
            return []
        node, dest = self.node, packet.dest
        dx = dest.x - node.x
        dy = dest.y - node.y
        # direction_class(dx, dy), then admission_index, inlined.
        cls = 3 * ((dx > 0) - (dx < 0)) + (dy > 0) - (dy < 0) + 4
        entries = self._admission[(cls * 5 + input_dir) * 2 + packet.yx_first]
        if cls == 4:
            return list(entries)  # early ejection
        vcs = self._vcs
        return [(vcs[p], route) for p, route in entries]

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
        if self.network.full_sweep:
            # The reference: the general body through the helper calls,
            # the ``ready`` list and the ``contenders`` map, kept apart
            # from the one walk below so that the differential oracle
            # compares the one walk and the lone path against an
            # independent body.
            newly_allocated, ready = self._stage_reference(occupied, cycle)
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
                crosspoint = _CROSSPOINT.get(key)
                if crosspoint is None:
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
                winner = self._set_arbiters[quadrant][crosspoint[0]].grant(lines)
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
            return
        if len(occupied) == 1:
            self._allocate_lone(occupied[0], cycle)
            return
        va_requests: list = []
        newly_allocated = self._stage_heads(occupied, cycle, va_requests)
        if va_requests:
            self._resolve_vc_allocations(va_requests, cycle)

        # One walk after VA (``_ready_walk``) takes the contention tally
        # and the VCs ready for the switch; each, at a crosspoint of the
        # decomposed crossbar, sets its bit (its index in the set) in the
        # request mask of that crosspoint's local arbiter.  As in the
        # generic router's separable SA, worms allocated only this cycle
        # are speculative and yield to non-speculative requests: a
        # crosspoint's mask holds its non-speculative requesters while it
        # has one.  RoCo's mirror allocator has no such cross-port
        # priority conflict.
        tally = [0] * 5
        ready = self._ready_walk(occupied, cycle, tally)
        self._add_contention(tally)
        requests = 0
        #: (path set, output) -> [request mask, whether speculative]
        crosspoints: dict[tuple[int, Direction], list] = {}
        for vc in ready:
            key = (vc.port, vc.out_dir)
            if key not in _CROSSPOINT:
                continue  # the decomposed crossbar has no such crosspoint
            requests += 1
            speculative = vc in newly_allocated
            entry = crosspoints.get(key)
            if entry is None or (entry[1] and not speculative):
                crosspoints[key] = [1 << vc.index, speculative]
            elif entry[1] is speculative:
                entry[0] |= 1 << vc.index
        if not requests:
            return
        self._activity.sa_requests += requests

        # Local stage: each path set elects one ready VC per reachable
        # output (two v:1 arbiters per set).  The global stage then walks
        # the outputs in fixed order with chained dependency — a set
        # matched to an earlier output cannot serve a later one, the
        # structural reason only 2 of its 24 match cases are non-blocking
        # (Table 2).  Each local winner sets its path set's line in its
        # output's request mask (``wanted``, indexed by output).
        local: dict[tuple[int, Direction], VirtualChannel] = {}
        wanted = [0, 0, 0, 0]
        for key, (mask, _) in crosspoints.items():
            q_index, out_dir = key
            slot, line = _CROSSPOINT[key]
            quadrant = QUADRANTS[q_index]
            arbiter = self._set_arbiters[quadrant][slot]
            local[key] = self.path_sets[quadrant][arbiter.grant_mask(mask)]
            wanted[out_dir] |= 1 << line

        # Chained dependency: a set matched earlier in the walk (a bit
        # of ``matched``) may only pick up a *second* output
        # opportunistically, when no unmatched set wants it — the global
        # arbitration signal has already been consumed by its first
        # grant.
        matched = 0
        for out_dir in OUTPUT_ORDER:
            mask = wanted[out_dir]
            if not mask:
                continue
            mask = mask & ~_MATCHED_LINES[out_dir, matched] or mask
            line = self._output_arbiters[out_dir].grant_mask(mask)
            q_index = _FEEDERS[out_dir][line]
            self._commit_switch_grant(local[(q_index, out_dir)], cycle)
            matched |= 1 << q_index

    def _grant_lone(self, vc: VirtualChannel, out_dir: Direction, fresh: bool) -> bool:
        """The lone request, at a crosspoint of the decomposed crossbar,
        wins its local arbiter there and its output's 2:1 arbiter."""
        crosspoint = _CROSSPOINT.get((vc.port, out_dir))
        if crosspoint is None:
            return False  # the decomposed crossbar has no such crosspoint
        slot, line = crosspoint
        self._set_arbiters[QUADRANTS[vc.port]][slot].grant_lone(vc.index)
        self._output_arbiters[out_dir].grant_lone(line)
        return True

    def _request_va(
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
        packet = vc.queue[0].packet
        if packet.dest == self.node:
            self.network.eject(vc.pop(cycle), self.node, cycle, early=True)
            return
        candidates = self.routing.candidates(self.node, packet)
        routes = self._order_by_headroom(candidates, packet, cycle)
        self._request_routes(vc, routes, cycle, va_requests)

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
