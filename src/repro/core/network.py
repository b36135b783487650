"""The 2D-mesh network: router grid, link phases and delivery bookkeeping.

The network advances routers through the per-cycle phase order of
Section 5.1 of DESIGN.md: link delivery, switch traversal, allocation.
It also owns the run-wide statistics collector and the fault registry.

By default stepping is *activity-driven*: only routers in the active set
— those holding flits or owing a switch traversal — run their phases.
Dormant routers are woken by source injections (immediately, the same
cycle) and by neighbour link launches (via a timed wake scheduled for
the flit's arrival cycle, so receivers sleep through the wire delay).
In a faulty network a router holding only fault-blocked heads and
worms waiting for a credit *naps*: it stays active but is not stepped
until something can change its verdicts or give it a credit
(BaseRouter.nap).  The ``full_sweep=True`` escape hatch restores the
original step-every-router schedule; both produce bit-identical
simulation results (see docs/activity-scheduling.md and the ``object``
row of tests/test_engines_agree.py).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING

from repro.core.config import SimulationConfig
from repro.core.statistics import StatsCollector
from repro.core.topology import make_topology
from repro.core.types import LOCAL, Direction, DropReason, Flit, NodeId, Packet
from repro.routing import make_routing

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.routers.base import BaseRouter

#: Sort key: a router's place in the row-major stepping order.
_ROW_MAJOR = attrgetter("_index")


class Network:
    """A ``width x height`` mesh of homogeneous routers."""

    def __init__(self, config: SimulationConfig, full_sweep: bool = False) -> None:
        from repro.routers import make_router  # local import: cycle guard

        self.config = config
        self.topology = make_topology(config.topology, config.width, config.height)
        self.routing = make_routing(config.routing)
        self.routing.topology = self.topology
        self.stats = StatsCollector(num_nodes=config.num_nodes)
        self.cycle = 0
        self.has_faults = False
        #: Bumped by every fault apply and clear (repro.faults.runtime),
        #: the only events that can change a kept hard-block verdict.
        self.fault_epoch = 0
        #: Escape hatch: step every router every cycle (the pre-activity
        #: schedule), used to differentially validate the active-set path.
        self.full_sweep = full_sweep
        self.stats.scheduler.full_sweep = full_sweep
        self.routers: dict[NodeId, "BaseRouter"] = {}
        self._build_routers(make_router)
        self._router_list = list(self.routers.values())
        for index, router in enumerate(self._router_list):
            router._index = index
        #: Routers frozen by this cycle's front half for its alloc half,
        #: and the logically active ones: those plus the napping ones.
        self._stepped: list["BaseRouter"] = []
        self._active: list["BaseRouter"] = []
        #: Routers in a nap not yet settled (see BaseRouter.nap).
        self._napping = 0
        #: While routers nap, from the freeze to the end of the allocate
        #: loop: the row-major place allocated last (-1 before the first);
        #: None otherwise.  A napper roused after that place allocates in
        #: this cycle (BaseRouter.rouse), from ``_late``.
        self._alloc_at: int | None = None
        self._late: list["BaseRouter"] = []
        #: Purge record (:meth:`record_claim`): pid -> the routers the
        #: packet claimed a VC in.  None — every drop purges every router
        #: — until :meth:`keep_purge_record`.
        self._reached: dict[int, list["BaseRouter"]] | None = None
        #: Timed wakes: cycle -> routers that must rejoin the active set
        #: at that cycle (a flit launched towards them lands then).
        self._wake_queue: dict[int, list["BaseRouter"]] = {}
        #: Set by the simulator: callbacks fired on packet completion.
        self.on_packet_delivered = None
        self.on_packet_dropped = None
        #: Optional FlightRecorder (repro.instrumentation.trace); when
        #: attached, routers emit per-flit events.
        self.trace = None
        #: Optional observer ``(cycle, stepped_routers)`` fired at the end
        #: of every cycle with the routers that were actually stepped —
        #: consumed by instrumentation probes and the scheduler tests.
        self.on_cycle_stepped = None
        #: Lazily-built routing-aware reachability map (cold paths only).
        self._reachability = None

    def _build_routers(self, make_router) -> None:
        """Instantiate the router grid in row-major order.

        Overridden by the sharded tile engine (repro.core.shard), which
        builds only its rectangle plus a one-deep ghost halo.
        """
        config = self.config
        for y in range(config.height):
            for x in range(config.width):
                node = NodeId(x, y)
                self.routers[node] = make_router(config.router, node, self)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def neighbor_of(self, node: NodeId, direction: Direction) -> NodeId | None:
        """The adjacent node in ``direction`` (wrap-aware), or None."""
        return self.topology.neighbor(node, direction)

    def router_at(self, node: NodeId) -> "BaseRouter":
        return self.routers[node]

    @property
    def nodes(self) -> list[NodeId]:
        return list(self.routers)

    def wire(self) -> None:
        """Finalise neighbour wiring; faults strike after (or before) it."""
        for router in self._router_list:
            router.wire()

    def teardown(self) -> None:
        """Break the reference cycles of a finished run's graph, so it is
        freed by refcounting the moment its owner lets go of it.

        The routers' back-references and the observers go; what the run
        counted (stats, router state, queues) stays readable.  No step
        may follow (docs/architecture.md, "The lifetime of a run").
        """
        for router in self._router_list:
            router.teardown()
        self.on_packet_delivered = self.on_packet_dropped = None
        self.on_cycle_stepped = None
        self._reachability = None

    def refresh_handshake(self, node: NodeId) -> None:
        """Recompute dead-port handshake state around ``node``.

        After a runtime fault (or recovery) changes what ``node`` can
        accept, its own outward view and every neighbour port pointing at
        it must be re-evaluated — the same computation :meth:`wire`
        performs, but scoped to one router's neighbourhood.
        """
        from repro.core.types import CARDINALS

        router = self.routers[node]
        for port in router.outputs.values():
            if port.downstream is not None:
                port.dead = not port.downstream.accepting(port.input_dir)
        for direction in CARDINALS:
            neighbor = self.neighbor_of(node, direction)
            if neighbor is None:
                continue
            back = self.routers[neighbor].outputs.get(direction.opposite)
            if back is not None and back.downstream is router:
                back.dead = not router.accepting(back.input_dir)

    # ------------------------------------------------------------------
    # Cycle advance
    # ------------------------------------------------------------------

    def new_fault_epoch(self) -> None:
        """A fault struck or healed: kept verdicts lapse, naps end."""
        self.fault_epoch += 1
        if self._napping:
            for router in self._router_list:
                router.rouse()

    def keep_purge_record(self) -> None:
        """Record claims from now on, so a drop purges only the routers
        its packet reached.

        Called before any traffic moves (the simulator does, when it can
        strike a fault).  The full-sweep reference keeps no record.
        """
        if not self.full_sweep:
            self._reached = {}

    def forget_claims(self) -> None:
        """Go back to purging every router: state was restored without
        the claims that made it (VirtualChannel.restore)."""
        self._reached = None

    def record_claim(self, pid: int, router: "BaseRouter") -> None:
        """Packet ``pid`` claimed a VC of ``router`` (VirtualChannel.claim)."""
        reached = self._reached
        if reached is not None:
            routers = reached.get(pid)
            if routers is None:
                reached[pid] = [router]
            elif router not in routers:
                routers.append(router)

    def settle(self, cycle: int) -> None:
        """End every nap at the end of ``cycle``, the run's last."""
        if self._napping:
            for router in self._router_list:
                if router._nap_until is not None:
                    router.settle_nap(cycle + 1)
            self._napping = 0

    def schedule_wake(
        self, router: "BaseRouter", input_dir: Direction, cycle: int
    ) -> None:
        """Wake ``router`` at the start of ``cycle`` — a flit lands then
        on its ``input_dir`` link, so only that link needs draining.

        Launching is the one wake source that can be deferred: a flit
        spends the link delay on the wire, during which its receiver has
        nothing to do.  The full-sweep reference path skips the queue
        entirely — every router is stepped anyway, and keeping the
        reference free of scheduler bookkeeping keeps its cost equal to
        the original seed's.
        """
        if self.full_sweep:
            return
        bucket = self._wake_queue.get(cycle)
        if bucket is None:
            self._wake_queue[cycle] = [(router, input_dir)]
        else:
            bucket.append((router, input_dir))

    def step(self, cycle: int) -> None:
        """Run one cycle's phases for every *active* router.

        Two halves, cut where cross-router effects change kind: what
        :meth:`step_front` launches lands ``LINK_DELAY`` cycles later,
        what :meth:`step_alloc` claims downstream is seen this cycle.
        Sharded tiles (repro.core.shard) call the halves themselves.
        """
        self.step_front(cycle)
        self.step_alloc(cycle)

    def step_front(self, cycle: int) -> None:
        """Wake processing, link delivery and switch traversal.

        Timed wakes due this cycle are applied first, then the active
        list is frozen in router-creation (row-major) order — the same
        relative order the full sweep uses, which keeps cross-router
        arbitration (competing VC claims on a shared downstream)
        bit-identical between the two schedulers.  Source injections
        wake routers before ``step`` runs (the simulator generates
        traffic first), so a router injected into this cycle allocates
        this cycle, exactly as under the full sweep.
        """
        self.cycle = cycle
        if self.full_sweep:
            stepped = self._router_list
        else:
            due = self._wake_queue.pop(cycle, None)
            if due is not None:
                for router, input_dir in due:
                    if router._deliver_due != cycle:
                        router._deliver_due = cycle
                        router._due_dirs = [input_dir]
                    else:
                        router._due_dirs.append(input_dir)
                    router.wake()
            stepped = [r for r in self._router_list if r.active]
        self._active = stepped
        if self._napping:
            stepped = self._without_nappers(stepped, cycle)
            self._alloc_at = -1
        scheduler = self.stats.scheduler
        scheduler.cycles += 1
        scheduler.router_steps += len(self._active)
        scheduler.router_slots += len(self._router_list)
        if self.full_sweep:
            for router in stepped:
                router.steps_taken += 1
                router.deliver_incoming(cycle)
        else:
            # Every in-flight flit scheduled a wake for its landing cycle
            # naming the link it lands on, so only routers in this cycle's
            # wake bucket can have arrivals — and only on their due links.
            for router in stepped:
                router.steps_taken += 1
                if router._deliver_due == cycle:
                    router.deliver_due(cycle)
        # Only a router holding last cycle's SA winners has a traversal.
        for router in stepped:
            if router._sa_winners:
                router.traverse(cycle)
        self._stepped = stepped

    def _without_nappers(self, active: list, cycle: int) -> list:
        """``active`` less the routers napping through ``cycle``; a nap
        that ends here (deadline due, or roused) is settled first."""
        stepped = []
        for router in active:
            until = router._nap_until
            if until is not None:
                if until > cycle:
                    continue
                router.settle_nap(cycle)
                self._napping -= 1
            stepped.append(router)
        return stepped

    def step_alloc(self, cycle: int) -> None:
        """Allocation, quiescence sleep, naps and end-of-cycle
        bookkeeping."""
        stepped = self._stepped
        if self._alloc_at is None:
            for router in stepped:
                router.allocate(cycle)
        else:
            stepped = self._allocate_rousing(stepped, cycle)
        if not self.full_sweep:
            # Ground-truth drain check after all phases: anything a
            # purge or refund changed mid-cycle is re-inspected here.
            # Only a faulty network naps (BaseRouter.nap).
            scheduler = self.stats.scheduler
            naps = self.has_faults
            for router in stepped:
                if router.quiescent():
                    router.active = False
                    scheduler.sleeps += 1
                elif naps and not router._sa_winners and router.nap(cycle):
                    self._napping += 1
        if self.on_cycle_stepped is not None:
            self.on_cycle_stepped(cycle, self._active)
        self.stats.tick()

    def _allocate_rousing(self, stepped: list, cycle: int) -> list:
        """The allocate loop of a cycle some router naps through.

        A purge or a credit may rouse a napper mid-cycle (BaseRouter.rouse
        puts it in ``_late``).  One roused before the loop reaches its
        row-major place allocates there, in this cycle, as the plain
        schedule would have it.  Returns the routers allocated.
        """
        late = self._late
        extra: list["BaseRouter"] = []
        for router in stepped:
            index = router._index
            if late:
                self._allocate_late(index, extra, cycle)
            self._alloc_at = index
            router.allocate(cycle)
        if late:
            self._allocate_late(len(self._router_list), extra, cycle)
        self._alloc_at = None
        return stepped + extra if extra else stepped

    def _allocate_late(self, before: int, done: list, cycle: int) -> None:
        """Allocate, in row-major order, the roused nappers placed before
        ``before``, appending them to ``done``."""
        late = self._late
        while late:
            first = min(late, key=_ROW_MAJOR)
            if first._index > before:
                return
            late.remove(first)
            self._alloc_at = first._index
            first.allocate(cycle)
            done.append(first)

    # ------------------------------------------------------------------
    # Delivery and dropping
    # ------------------------------------------------------------------

    def eject(self, flit: Flit, node: NodeId, cycle: int, early: bool) -> None:
        """Consume a flit at its destination PE."""
        packet = flit.packet
        if packet.dropped_cycle is not None:
            return
        if early:
            self.stats.activity.early_ejections += 1
        if self.trace is not None:
            from repro.instrumentation.trace import EventKind

            self.trace.record(cycle, EventKind.EJECT, flit, node,
                              "early" if early else "via crossbar")
        packet.flits_delivered += 1
        self.stats.flit_delivered(packet.measured)
        if flit.closes_worm:
            packet.delivered_cycle = cycle
            if self._reached is not None:
                self._reached.pop(packet.pid, None)
            # Report the links the head actually crossed; a detour (e.g.
            # around a fault) makes this exceed the minimal distance.
            self.stats.packet_delivered(packet, packet.measured, hops=packet.hops)
            if self.on_packet_delivered is not None:
                self.on_packet_delivered(packet)

    def drop_packet(
        self,
        packet: Packet,
        cycle: int,
        reason: DropReason = DropReason.UNSPECIFIED,
    ) -> None:
        """Abort a worm network-wide (fault-timeout discard, Section 4.1).

        The purge visits, in row-major order, the routers the packet
        claimed a VC in — every router holding a flit, a claim or a
        draining grant of it — or every router without a purge record.
        """
        if packet.dropped_cycle is not None or packet.delivered_cycle is not None:
            return
        packet.dropped_cycle = cycle
        packet.drop_reason = reason
        reached = self._reached
        if reached is None:
            routers = self._router_list
        else:
            routers = reached.pop(packet.pid, ())
            if len(routers) > 1:
                routers.sort(key=_ROW_MAJOR)
        for router in routers:
            router.purge_packet(packet.pid, cycle)
        self.stats.packet_dropped(packet, packet.measured, reason)
        if self.on_packet_dropped is not None:
            self.on_packet_dropped(packet)

    # ------------------------------------------------------------------
    # Fault-awareness queries (handshake-signal knowledge, Section 4.1)
    # ------------------------------------------------------------------

    @property
    def reachability(self):
        """Routing-aware reachability queries (built on first use)."""
        if self._reachability is None:
            from repro.faults.reachability import ReachabilityMap

            self._reachability = ReachabilityMap(self)
        return self._reachability

    def invalidate_reachability(self) -> None:
        """Forget memoised reachability after a topology change."""
        if self._reachability is not None:
            self._reachability.invalidate()

    def can_transit(self, node: NodeId, direction: Direction) -> bool:
        """Whether ``node`` can currently forward traffic towards ``direction``."""
        router = self.routers[node]
        if router.dead:
            return False
        module_for = getattr(router, "module_for", None)
        if module_for is not None and direction is not LOCAL:
            return not module_for(direction).dead
        return True

    def node_blocked(self, node: NodeId) -> bool:
        """Conservative per-node health used by XY-YX variant selection."""
        router = self.routers[node]
        if router.dead:
            return True
        modules = getattr(router, "modules", None)
        if modules is not None:
            return any(m.dead for m in modules.values())
        return False
