"""The Row-Column (RoCo) Decoupled Router (paper Section 3).

Key behaviours modelled:

* **Guided Flit Queuing** — look-ahead routing is committed by the
  *upstream* VC allocator: choosing a downstream VC class (``dx``,
  ``txy``, ...) *is* choosing the route at the next router, so arriving
  flits land directly in a path set matching their output dimension.
* **Early Ejection** — a flit destined for the local PE never enters a
  VC: :meth:`vc_candidates` returns the EJECT pseudo-target and the flit
  is consumed on arrival, saving the SA + ST cycles.
* **Mirroring Effect** — each module's 2x2 crossbar is allocated by the
  maximal-matching mirror allocator (one global arbiter per module).
* **Graceful degradation** — router-centric/critical faults isolate a
  single module; message-centric/non-critical faults are bypassed by the
  hardware-recycling mechanisms (Section 4), modelled as small latency
  penalties or capacity losses.
"""

from __future__ import annotations

from repro.core.buffer import VirtualChannel
from repro.core.types import LOCAL, Direction, NodeId, Packet
from repro.routers.admission import admission_table, injection_table
from repro.routers.base import BaseRouter
from repro.routers.roco.module import RoCoModule
from repro.routers.roco.path_set import COLUMN, ROW, TABLE1
from repro.routing.base import direction_class


class RoCoRouter(BaseRouter):
    """Two-module decoupled wormhole router."""

    architecture = "roco"
    #: The contention tally is booked only by a module that arbitrates
    #: with a ready VC, which a napping router has not.
    idle_tally = False
    #: The compact 2v:1 VA arbiters complete a second arbitration
    #: iteration within the cycle (Figure 2 / Section 3.1).
    va_iterations = 2

    def __init__(self, node: NodeId, network) -> None:
        super().__init__(node, network)
        depth = self.config.buffer_depth
        mirror = self.config.mirror_allocation
        self.modules: dict[str, RoCoModule] = {
            ROW: RoCoModule(ROW, self.config.vcs_per_port, mirror=mirror),
            COLUMN: RoCoModule(COLUMN, self.config.vcs_per_port, mirror=mirror),
        }
        self._vcs: list[VirtualChannel] = []
        mode = self.routing.mode
        specs = TABLE1[mode]
        for name, port, vc_class, accepts_from, escape, final_only in specs:
            module = self.modules[name]
            vc = VirtualChannel(
                port=port,
                index=len(module.ports[port]),
                depth=depth,
                vc_class=vc_class,
            )
            vc.accepts_from = accepts_from
            vc.escape = escape
            vc.final_only = final_only
            vc.input_dir = accepts_from[0] if len(accepts_from) == 1 else None
            vc.router = self
            module.add_vc(port, vc)
            self._vcs.append(vc)
        for module in self.modules.values():
            module.seal()
        #: The two modules by name; read every step by the allocate phase.
        self.row: RoCoModule = self.modules[ROW]
        self.column: RoCoModule = self.modules[COLUMN]
        #: The shared admission and injection tables of this VC table.
        self._admission = admission_table(specs, mode)
        self._injection = injection_table(specs, mode)
        #: Occupancy snapshot left behind by the last allocate() pass;
        #: lets quiescent() answer in O(1) instead of re-walking VCs.
        self._alloc_occupied = False

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def all_vcs(self) -> list[VirtualChannel]:
        return self._vcs

    def module_for(self, direction: Direction) -> RoCoModule:
        """The module that drives ``direction``'s output."""
        return self.row if direction.is_row else self.column

    def accepting_any_injection(self) -> bool:
        """The PE can still source packets while any module lives."""
        return not self.dead and not (self.row.dead and self.column.dead)

    def accepting(self, input_dir: Direction) -> bool:
        """A RoCo router accepts on an input while any module lives.

        Per-flit admission is enforced by :meth:`vc_candidates`, so a
        neighbour can still forward traffic that only needs the healthy
        module (the graceful-degradation property).
        """
        return not self.dead and not (self.row.dead and self.column.dead)

    # ------------------------------------------------------------------
    # Admission (Guided Flit Queuing + Early Ejection)
    # ------------------------------------------------------------------

    def vc_candidates(
        self, input_dir: Direction, packet: Packet
    ) -> list[tuple[object, Direction | None]]:
        """The Table-1 admission entry of the head's key
        (repro.routers.admission), read with this router's VCs, less the
        routes of a dead module."""
        row, column = self.row, self.column
        if self.dead or (row.dead and column.dead):
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
        if row.dead or column.dead:
            dead_row = row.dead
            return [
                (vcs[p], route) for p, route in entries if route.is_row != dead_row
            ]
        return [(vcs[p], route) for p, route in entries]

    # ------------------------------------------------------------------
    # Injection interface (used by the traffic source)
    # ------------------------------------------------------------------

    def injection_vc_for(self, packet: Packet):
        """A free injection VC with the first direction it commits to.

        Choosing ``Injxy`` vs ``Injyx`` *is* the packet's first routing
        decision (guided flit queuing starts at the source PE).  Returns
        ``(vc, route)`` or None.
        """
        best = None
        best_credits = -1
        cycle = self.network.cycle
        vcs = self._vcs
        for route, positions in self._first_routes(packet):
            if self.module_for(route).dead:
                continue
            for p in positions:
                vc = vcs[p]
                if vc.injectable(cycle):
                    credit = vc.credits(cycle)
                    if credit > best_credits:
                        best, best_credits = (vc, route), credit
        return best

    def injection_possible(self, packet: Packet) -> bool:
        """Whether ``packet`` could ever be injected here.

        A packet whose every first direction needs a dead module can
        never leave the PE (e.g. XY traffic needing the Row-Module).
        """
        if self.dead:
            return False
        for route, _positions in self._first_routes(packet):
            if not self.module_for(route).dead:
                return True
        return False

    def _first_routes(self, packet: Packet):
        """The injection-table entry of ``packet``: its first directions,
        each with its module's injection VCs (repro.routers.admission)."""
        node, dest = self.node, packet.dest
        cls = direction_class(dest.x - node.x, dest.y - node.y)
        return self._injection[cls * 2 + packet.yx_first]

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------

    def quiescent(self) -> bool:
        """O(1) variant: reuse the occupancy scan allocate() just did.

        The network checks quiescence right after the allocate phase, and
        allocation never adds flits, so the snapshot is current.  A worm
        purged *between* allocate and this check leaves the snapshot
        conservatively True — the router stays awake one extra cycle,
        re-scans, and sleeps; simulation results are unaffected.
        """
        if self.network.full_sweep:
            return False
        if self._sa_winners:
            return False
        return not self._alloc_occupied

    def allocate(self, cycle: int) -> None:
        if self.dead:
            self._alloc_occupied = False
            return
        if self.network.full_sweep:
            # The reference: every VC of every live module is walked
            # unconditionally, through the property and helper calls,
            # with fresh containers.  The differential oracle compares
            # the occupancy-first path below against this branch rather
            # than against itself.
            stats = self.network.stats
            va_requests: list = []
            va_pending: dict[str, list] = {name: [] for name in self.modules}
            for name, module in self.modules.items():
                if module.dead:
                    continue
                for port_vcs in module.ports:
                    for vc in port_vcs:
                        if self.network.has_faults:
                            self._discard_dropped_front(vc, cycle)
                        front = vc.front
                        if front is None or not front.is_head:
                            continue
                        if vc.active_pid is None:
                            vc.active_pid = front.packet.pid
                        if not vc.allocated:
                            if (
                                not self.config.lookahead_routing
                                and front.arrival >= cycle
                            ):
                                continue  # ablation: RC charged post-arrival
                            va_pending[name].append(vc)
                            self._request_va(vc, cycle, va_requests)
            self._resolve_vc_allocations(va_requests, cycle)
            # A module's VA arbiters were *busy* this cycle if they issued
            # a grant — mere pending requests do not occupy the arbiter.
            va_busy = {
                name: any(vc.allocated for vc in vcs)
                for name, vcs in va_pending.items()
            }

            for name, module in self.modules.items():
                if module.dead:
                    continue
                if module.sa_degraded and va_busy[name]:
                    continue
                requests = [
                    [
                        [False] * len(module.ports[0]),
                        [False] * len(module.ports[0]),
                    ]
                    for _ in range(2)
                ]
                ready_vcs = []
                for port in range(2):
                    for vc in module.ports[port]:
                        if self._vc_ready_for_switch(vc, cycle):
                            slot = module.slot_map[vc.out_dir]
                            requests[port][slot][vc.index] = True
                            ready_vcs.append(vc)
                if not ready_vcs:
                    continue
                stats.activity.sa_requests += len(ready_vcs)
                self._tally_contention(self._vcs)
                grants = module.allocator.allocate(requests)
                if module.sa_degraded and len(grants) > 1:
                    grants = grants[:1]
                for grant in grants:
                    vc = module.ports[grant.port][grant.vc_index]
                    self._commit_switch_grant(vc, cycle)
            return
        # Occupancy first, per module (the router-level activity idea
        # applied to RoCo's decoupled halves): a step finds one to three
        # of the 12 VCs holding a flit, usually all in one module, and a
        # module with no buffered flit stages no VA request, nominates no
        # SA candidate and touches no stat.  With neither module occupied
        # the router was woken for an early-ejection or in-flight arrival
        # and the whole phase is a no-op — including under SA-offload
        # faults, whose borrow rule only bites when VA issued a grant.
        # Later sub-phases re-probe ``vc.queue``: a fault drop during VA
        # may purge a worm mid-walk, but allocation never adds a flit.
        row, column = self.row, self.column
        row_occupied = [vc for vc in row.all_vcs() if vc.queue]
        column_occupied = [vc for vc in column.all_vcs() if vc.queue]
        if not row_occupied and not column_occupied:
            self._alloc_occupied = False
            return
        self._alloc_occupied = True
        if len(row_occupied) + len(column_occupied) == 1:
            if row_occupied:
                self._allocate_lone(row, row_occupied[0], cycle)
            else:
                self._allocate_lone(column, column_occupied[0], cycle)
            return
        va_requests: list = []
        # (module, its occupied VCs, the VCs that requested VA), Row first.
        # A dead or empty module stages nothing.
        work = (
            (row, row_occupied,
             self._stage_heads(row_occupied, cycle, va_requests)
             if row_occupied and not row.dead else ()),
            (column, column_occupied,
             self._stage_heads(column_occupied, cycle, va_requests)
             if column_occupied and not column.dead else ()),
        )
        if va_requests:
            self._resolve_vc_allocations(va_requests, cycle)

        # One walk after VA (``_ready_walk``) over both modules' occupied
        # VCs takes the contention tally and, in a module that arbitrates
        # this cycle, the VCs ready for the switch, which (two or more)
        # set their bits of the module's request matrix (scratch: set
        # here, cleared after the allocator call).  Mirror switch
        # allocation runs in a live module, unless its arbitration is
        # offloaded (SA fault recovery) to VA arbiters that issued a
        # grant this cycle (mere pending requests do not occupy them).
        tally = [0] * 5
        arbitrating = []
        for module, occupied, pending in work:
            if not occupied:
                continue
            arbitrates = not module.dead and not (
                module.sa_degraded and any(vc.out_vc is not None for vc in pending)
            )
            ready = self._ready_walk(occupied, cycle, tally, arbitrates)
            if len(ready) > 1:
                requests = module.sa_requests
                slot_map = module.slot_map
                for vc in ready:
                    requests[vc.port][slot_map[vc.out_dir]][vc.index] = True
            if ready:
                arbitrating.append((module, ready))
        # The tally sees every occupied VC; it is booked once per module
        # that arbitrates with a ready VC.  A module's sole ready VC is
        # granted without running the allocator, as on the lone path.
        for module, ready in arbitrating:
            self._activity.sa_requests += len(ready)
            self._add_contention(tally)
            if len(ready) == 1:
                vc = ready[0]
                grant = module.allocator.grant_lone(
                    vc.port, module.slot_map[vc.out_dir], vc.index
                )
                self._commit_switch_grant(
                    module.ports[grant.port][grant.vc_index], cycle
                )
                continue
            requests = module.sa_requests
            slot_map = module.slot_map
            grants = module.allocator.allocate(requests)
            for vc in ready:
                requests[vc.port][slot_map[vc.out_dir]][vc.index] = False
            if module.sa_degraded and len(grants) > 1:
                # The borrowed VA arbiter serves a single port per cycle.
                grants = grants[:1]
            for grant in grants:
                self._commit_switch_grant(
                    module.ports[grant.port][grant.vc_index], cycle
                )

    def _allocate_lone(
        self, module: RoCoModule, vc: VirtualChannel, cycle: int
    ) -> None:
        """:meth:`allocate` of a step that finds only ``vc`` occupied,
        in ``module``.

        The occupancy-first body with each container cut to its one
        entry.  The VC, if ready, is the module's sole SA request, which
        the allocator grants without running (``grant_lone``), its
        arbiters moving their rotating priority exactly as ``allocate``
        would.  The full-sweep reference never comes here.
        """
        if module.dead:
            return
        requested = self._stage_lone(vc, cycle)
        if module.sa_degraded and requested and vc.out_vc is not None:
            return  # the borrowed VA arbiters issued a grant: busy
        if not self._vc_ready_for_switch(vc, cycle):
            return
        self._activity.sa_requests += 1
        self._tally_lone(vc)
        grant = module.allocator.grant_lone(
            vc.port, module.slot_map[vc.out_dir], vc.index
        )
        self._commit_switch_grant(module.ports[grant.port][grant.vc_index], cycle)

    # ------------------------------------------------------------------
    # Runtime fault reaction
    # ------------------------------------------------------------------

    def _route_viable(self, route: Direction, packet: Packet) -> bool:
        """Whether a committed look-ahead route can still make progress."""
        if route is LOCAL:
            return True
        port = self.outputs.get(route)
        if port is None or port.dead or port.downstream is None:
            return False
        # vc_candidates filters structurally (dead modules, class
        # admission) — an empty list is a hard block, not congestion.
        return bool(port.downstream.vc_candidates(port.input_dir, packet))

    def reroute_after_fault(self, vc: VirtualChannel) -> None:
        """Recompute a guided-flit-queuing route that a fault invalidated.

        The replacement must be drivable by the module already buffering
        the worm — flits cannot migrate between the decoupled modules —
        so this mostly helps adaptive routing, where a productive
        same-dimension alternative can exist.  Worms with no viable
        alternative are left to the stall-timeout discard, matching the
        static fault model's behaviour.
        """
        front = vc.front
        if front is None or not front.is_head or vc.allocated:
            return
        route = front.route
        if route is None or route is LOCAL:
            return
        packet = front.packet
        if self._route_viable(route, packet):
            return
        module = self.row if vc in self.row.all_vcs() else self.column
        if module.dead:
            return
        for candidate in self.routing.candidates(self.node, packet):
            if candidate is route or not module.handles(candidate):
                continue
            if self._route_viable(candidate, packet):
                front.route = candidate
                return

    def _request_va(
        self, vc: VirtualChannel, cycle: int, va_requests: list
    ) -> None:
        """Stage VA for a head whose route here was committed by look-ahead.

        The one committed route's outcome is handled inline, cheaper on
        the hot path than :meth:`_request_routes`: a hard block is one
        attempt, and a request staged or granted in an RC-faulty module
        pays the double-routing hold.
        """
        if vc.verdict is not None and self._blocked_again(vc, cycle):
            return
        front = vc.queue[0]
        out_dir = front.route
        if out_dir is None or out_dir is LOCAL:
            # Defensive: early ejection should have consumed this flit.
            self.network.eject(vc.pop(cycle), self.node, cycle, early=True)
            return
        module = self.row if vc in self.row.all_vcs() else self.column
        if not module.handles(out_dir):
            raise RuntimeError(
                f"flit routed {out_dir.name} buffered in {module.name} module"
            )
        outcome = self._request_vc_allocation(vc, out_dir, front, va_requests)
        if outcome:
            if module.rc_faulty:
                # Double-routing recovery: the downstream neighbour must
                # redo this router's skipped look-ahead computation.
                vc.hold_until = max(vc.hold_until, cycle + 1)
        elif outcome is None:
            self._hard_blocked(vc, cycle, 1)
        else:
            self.clear_stall(vc)
