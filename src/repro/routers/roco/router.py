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
from repro.core.types import Direction, NodeId, Packet, RoutingMode
from repro.routers.base import EJECT, BaseRouter
from repro.routers.roco.module import RoCoModule
from repro.routers.roco.path_set import COLUMN, ROW, vc_configuration


class RoCoRouter(BaseRouter):
    """Two-module decoupled wormhole router."""

    architecture = "roco"
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
        for spec in vc_configuration(self.routing.mode):
            module = self.modules[spec.module]
            vc = VirtualChannel(
                port=spec.port,
                index=len(module.ports[spec.port]),
                depth=depth,
                vc_class=spec.vc_class,
            )
            vc.accepts_from = spec.accepts_from
            vc.escape = spec.escape
            vc.final_only = spec.final_only
            vc.input_dir = (
                spec.accepts_from[0] if len(spec.accepts_from) == 1 else None
            )
            module.add_vc(spec.port, vc)
            self._vcs.append(vc)
        #: The two modules by name; read every step by the allocate phase.
        self.row: RoCoModule = self.modules[ROW]
        self.column: RoCoModule = self.modules[COLUMN]
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
        self, input_dir: Direction, packet: Packet, escape_only: bool = False
    ) -> list[tuple[object, Direction | None]]:
        if not self.accepting(input_dir):
            return []
        if packet.dest == self.node:
            return [(EJECT, Direction.LOCAL)]
        out: list[tuple[object, Direction | None]] = []
        escape_dir = None
        if self.routing.mode is RoutingMode.ADAPTIVE:
            escape_dir = self.routing.escape_direction(self.node, packet)
        for route in self.routing.candidates(self.node, packet):
            cls = classify_vc(input_dir, route)
            module = self.module_for(route)
            if module.dead:
                continue
            final = self._is_final(route, packet)
            for vc in module.all_vcs():
                if vc.vc_class != cls or input_dir not in vc.accepts_from:
                    continue
                if vc.final_only and not final:
                    continue
                if vc.escape and route is not escape_dir:
                    continue
                if escape_only and not vc.escape:
                    continue
                out.append((vc, route))
        return out

    def _is_final(self, route: Direction, packet: Packet) -> bool:
        """No further turns needed once travelling along ``route``."""
        if route.is_row:
            return packet.dest.y == self.node.y
        return packet.dest.x == self.node.x

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
        for route in self.routing.candidates(self.node, packet):
            module = self.module_for(route)
            if module.dead:
                continue
            cls = "injxy" if route.is_row else "injyx"
            for vc in module.all_vcs():
                if vc.vc_class != cls:
                    continue
                if vc.injectable(self.network.cycle):
                    credit = vc.credits(self.network.cycle)
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
        for route in self.routing.candidates(self.node, packet):
            if not self.module_for(route).dead:
                return True
        return False

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
                            self._request_worm_allocation(
                                module, vc, cycle, va_requests
                            )
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
        has_faults = self.network.has_faults
        lookahead = self.config.lookahead_routing
        va_requests: list = []
        # (module, its occupied VCs, the VCs that requested VA) for the
        # live modules with work, Row first.
        work = []
        for module, occupied in ((row, row_occupied), (column, column_occupied)):
            if module.dead or not occupied:
                continue
            pending: list[VirtualChannel] = []
            work.append((module, occupied, pending))
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
                    pending.append(vc)
                    self._request_worm_allocation(module, vc, cycle, va_requests)
        if va_requests:
            self._resolve_vc_allocations(va_requests, cycle)

        every_occupied = row_occupied + column_occupied
        for module, occupied, pending in work:
            # Mirror switch allocation over the module's 2x2 crossbar.
            if module.sa_degraded and any(vc.out_vc is not None for vc in pending):
                # SA fault recovery: arbitration borrows the VA arbiters,
                # which are busy if they issued a grant this cycle (mere
                # pending requests do not occupy them).
                continue
            ready = [vc for vc in occupied if self._vc_ready_for_switch(vc, cycle)]
            if not ready:
                continue
            self.network.stats.activity.sa_requests += len(ready)
            self._tally_contention(every_occupied)
            # The request matrix is module scratch: set the ready bits,
            # allocate, clear the same bits.
            requests = module.sa_requests
            slot_map = module.slot_map
            for vc in ready:
                requests[vc.port][slot_map[vc.out_dir]][vc.index] = True
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

    # ------------------------------------------------------------------
    # Runtime fault reaction
    # ------------------------------------------------------------------

    def _route_viable(self, route: Direction, packet: Packet) -> bool:
        """Whether a committed look-ahead route can still make progress."""
        if route is Direction.LOCAL:
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
        if route is None or route is Direction.LOCAL:
            return
        packet = front.packet
        if self._route_viable(route, packet):
            return
        module = next(
            (m for m in self.modules.values() if vc in m.all_vcs()), None
        )
        if module is None or module.dead:
            return
        for candidate in self.routing.candidates(self.node, packet):
            if candidate is route or not module.handles(candidate):
                continue
            if self._route_viable(candidate, packet):
                front.route = candidate
                return

    def _request_worm_allocation(
        self, module: RoCoModule, vc: VirtualChannel, cycle: int, va_requests: list
    ) -> None:
        """Stage VA for a head whose route here was committed by look-ahead."""
        if vc.verdict is not None and self._blocked_again(vc, cycle):
            return
        front = vc.front
        out_dir = front.route
        if out_dir is None or out_dir is Direction.LOCAL:
            # Defensive: early ejection should have consumed this flit.
            self.network.eject(vc.pop(cycle), self.node, cycle, early=True)
            return
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

def classify_vc(input_dir: Direction, route: Direction) -> str:
    """Table-1 VC class for a flit arriving on ``input_dir`` routed to ``route``."""
    if input_dir is Direction.LOCAL:
        return "injxy" if route.is_row else "injyx"
    if input_dir.is_row:
        return "dx" if route.is_row else "txy"
    return "dy" if route.is_column else "tyx"
