"""Shared wormhole-router machinery.

All three architectures (generic, Path-Sensitive, RoCo) are two-stage
pipelined wormhole routers with credit-based virtual-channel flow control.
This module owns everything they share:

* look-ahead VC allocation against the downstream router's exposed VCs,
* switch-grant commitment (credit reservation) and flit launch,
* the shared switch-traversal phase with stale-grant revalidation,
* packet dropping and worm purging in faulty networks,
* the stall-timeout machinery the fault model uses.

Subclasses define their own buffer organisation and implement the
``allocate`` pipeline phase (RC + VA + speculative SA); traversal is
identical across architectures and lives here.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.core.buffer import VirtualChannel
from repro.core.channel import Channel
from repro.core.types import (
    CARDINALS,
    Direction,
    DropReason,
    Flit,
    NodeId,
    Packet,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.network import Network


class _EjectSentinel:
    """Marker for the early-ejection 'virtual channel' (paper Section 3.1).

    A worm allocated to EJECT is consumed by the destination PE on arrival
    — no buffering, no switch allocation, no switch traversal there.
    """

    def __repr__(self) -> str:  # pragma: no cover
        return "<EJECT>"


#: Singleton early-ejection target.
EJECT = _EjectSentinel()


class OutputPort:
    """Upstream-side handle for one output direction of a router."""

    __slots__ = ("direction", "link", "downstream", "input_dir", "dead")

    def __init__(self, direction: Direction) -> None:
        self.direction = direction
        self.link: Channel[Flit] = Channel()
        self.downstream: "BaseRouter | None" = None
        #: The downstream input this port feeds (``direction.opposite``).
        self.input_dir = direction.opposite
        #: True when the downstream input no longer accepts traffic
        #: (downstream router or module permanently failed).
        self.dead = False


class BaseRouter(abc.ABC):
    """Abstract two-stage wormhole router."""

    #: Architecture tag used by configuration and the energy profiles.
    architecture = "base"

    def __init__(self, node: NodeId, network: "Network") -> None:
        self.node = node
        self.network = network
        self.config = network.config.router_config
        self.routing = network.routing
        #: Output ports for the cardinals wired to neighbours that exist;
        #: border directions are simply absent.
        self.outputs: dict[Direction, OutputPort] = {}
        for d in CARDINALS:
            if network.neighbor_of(node, d) is not None:
                self.outputs[d] = OutputPort(d)
        #: Whole-router kill switch (generic/Path-Sensitive under any
        #: permanent fault; RoCo only loses a module, see subclass).
        self.dead = False
        #: Activity-driven scheduling state: only active routers are
        #: stepped by :meth:`Network.step`.  Routers start dormant and
        #: are woken by source injections and inbound link launches.
        self.active = False
        #: Cycle at which a timed wake (in-flight arrival) is due; the
        #: active scheduler polls inbound links only on matching cycles,
        #: and only the links named in ``_due_dirs`` (each launch
        #: schedules its landing link, so everything else is empty wire).
        self._deliver_due = -1
        self._due_dirs: list[Direction] = []
        #: Cycles this router was stepped (scheduler telemetry); a nap's
        #: cycles are added when it ends.
        self.steps_taken = 0
        #: Blocked sleep (a *nap*, see :meth:`nap`): None while awake,
        #: else the cycle the router must be stepped again by — its
        #: earliest stall deadline, or 0 once something roused it.
        self._nap_until: int | None = None
        #: First cycle of the current nap, and the VA requests each of
        #: its cycles makes (the kept verdicts' attempts).
        self._nap_from = 0
        self._nap_va = 0
        #: Last cycle a head here ended all-hard-blocked (nap pre-check).
        self._blocked_cycle = -1
        #: Filled by :meth:`wire`: upstream links feeding this router,
        #: in CARDINALS order (the full-sweep delivery order), and the
        #: flat VC list the hot-path idle checks iterate.
        self._in_links: tuple[tuple[Direction, Channel], ...] = ()
        self._in_link_map: dict[Direction, Channel] = {}
        self._vc_cache: tuple[VirtualChannel, ...] = ()
        #: The run-wide activity counters; bound once — the launch and
        #: accept paths bump these for every flit moved.
        self._activity = network.stats.activity
        #: Stall start cycles keyed by VC object id, for fault timeouts.
        self._stall_since: dict[int, int] = {}
        #: SA winners computed during allocate(), consumed by the next
        #: cycle's traverse(): (vc, out_dir, out_vc) at grant time.
        self._sa_winners: list[tuple[VirtualChannel, Direction, object]] = []

    # ------------------------------------------------------------------
    # Structure exposed to neighbours
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def vc_candidates(
        self, input_dir: Direction, packet: Packet, escape_only: bool = False
    ) -> list[tuple[object, Direction | None]]:
        """Admission options for a head flit arriving on ``input_dir``.

        Returns ``(target, route_here)`` pairs where ``target`` is either
        a :class:`VirtualChannel` of this router or :data:`EJECT` (early
        ejection, paired with ``Direction.LOCAL``).  ``route_here`` is the
        committed look-ahead route at this router, or None for
        architectures that compute routes locally on arrival.
        ``escape_only`` restricts options to the deadlock-free escape
        subnetwork.
        """

    def accepting(self, input_dir: Direction) -> bool:
        """Whether this input still accepts traffic (fault handshake)."""
        return not self.dead

    def accepting_any_injection(self) -> bool:
        """Whether the local PE can still source packets at all."""
        return not self.dead

    def wire(self) -> None:
        """Attach output ports to neighbours; called once, before traffic."""
        for d, port in self.outputs.items():
            neighbor_node = self.network.neighbor_of(self.node, d)
            neighbor = self.network.router_at(neighbor_node)
            port.downstream = neighbor
            port.dead = not neighbor.accepting(d.opposite)
        in_links = []
        for d in CARDINALS:
            neighbor_node = self.network.neighbor_of(self.node, d)
            if neighbor_node is None:
                continue
            up_port = self.network.router_at(neighbor_node).outputs.get(d.opposite)
            if up_port is not None:
                in_links.append((d, up_port.link))
        self._in_links = tuple(in_links)
        self._in_link_map = dict(in_links)
        self._vc_cache = tuple(self.all_vcs())

    # ------------------------------------------------------------------
    # Activity-driven scheduling hooks (see docs/activity-scheduling.md)
    # ------------------------------------------------------------------

    def wake(self) -> None:
        """Put this router in the network's active set for the next step.

        Called by the PE source when it pushes an injection flit (the
        simulator generates traffic before stepping, so the router
        allocates the same cycle) and by the network's timed wake queue
        when an in-flight flit lands; either also ends a nap.
        Idempotent and cheap — the hot path calls it once per launched
        flit.
        """
        if not self.active:
            self.active = True
            self.network.stats.scheduler.wakeups += 1
        elif self._nap_until is not None:
            self._nap_until = 0  # :meth:`rouse`, inlined on the hot path

    def nap(self, cycle: int) -> bool:
        """Leave the stepped list while only blocked heads are held.

        Called after an allocate phase that kept or replayed a verdict
        (only faulty networks keep them).  When every occupied VC holds
        a head whose kept verdict is current and there is no SA winner,
        each further step would repeat the same :meth:`_blocked_again`
        calls until the earliest stall deadline, where
        :meth:`note_stall` drops a packet.  The router then naps:
        it stays logically active (counted in ``router_steps`` and shown
        to ``on_cycle_stepped``), is not stepped, and is stepped again
        at that deadline or once roused (:meth:`rouse`);
        :meth:`settle_nap` then books the skipped steps.  Returns
        whether it napped.
        """
        if self._sa_winners:
            return False
        epoch = self.network.fault_epoch
        since = self._stall_since
        first = None
        va = 0
        for vc in self._vc_cache:
            queue = vc.queue
            if not queue:
                continue
            verdict = vc.verdict
            if (
                verdict is None
                or verdict[0] != epoch
                or verdict[1] != queue[0].packet.pid
            ):
                return False
            start = since[id(vc)]  # replaying a verdict noted the stall
            if first is None or start < first:
                first = start
            va += verdict[2]
        if first is None:
            return False  # a drop this cycle emptied the router
        self._nap_until = first + self.network.config.fault_drop_timeout
        self._nap_from = cycle + 1
        self._nap_va = va
        return True

    def rouse(self) -> None:
        """End a nap: step this router from the next frozen list on."""
        if self._nap_until is not None:
            self._nap_until = 0

    def settle_nap(self, cycle: int) -> None:
        """Book a nap's skipped steps, ``_nap_from`` up to ``cycle`` (excluded)."""
        slept = cycle - self._nap_from
        self.steps_taken += slept
        self._activity.va_requests += slept * self._nap_va
        self._nap_until = None

    def quiescent(self) -> bool:
        """Whether skipping this router's phases is observably a no-op.

        Checked after the allocate phase each cycle; a True verdict puts
        the router to sleep until the next :meth:`wake`.  The conditions
        mirror everything a phase could act on eagerly: granted switch
        passages awaiting traversal and buffered flits.  Everything else
        is covered by a guaranteed future wake or needs no stepping at
        all — in-flight arrivals (including early-ejection worms that
        never touch a VC) carry a timed wake scheduled at launch for
        their landing cycle, slots reserved by an upstream VC allocator
        (``expected``) become work only once their flit lands, and
        pending credit releases refresh lazily on query.
        """
        if self._sa_winners:
            return False
        for vc in self._vc_cache:
            if vc.queue:
                return False
        return True

    # ------------------------------------------------------------------
    # Pipeline phases (called by the network each cycle)
    # ------------------------------------------------------------------

    def deliver_incoming(self, cycle: int) -> None:
        """Phase 1: accept flits that finished link traversal."""
        for d, link in self._in_links:
            for flit in link.deliver(cycle):
                self._accept_flit(flit, d, cycle)

    def deliver_due(self, cycle: int) -> None:
        """Phase 1, active-scheduler variant: drain only due links.

        ``_due_dirs`` names every link with a flit landing this cycle
        (one entry per launch; a single-lane link lands at most one flit
        per cycle, so entries are distinct).  Draining them in CARDINALS
        order keeps multi-link arrival order identical to the full
        sweep's fixed-order poll.
        """
        dirs = self._due_dirs
        if len(dirs) > 1:
            dirs.sort()
        link_map = self._in_link_map
        for d in dirs:
            link = link_map[d]
            for flit in link.deliver(cycle):
                self._accept_flit(flit, d, cycle)

    def _accept_flit(self, flit: Flit, input_dir: Direction, cycle: int) -> None:
        """Buffer (or early-eject / discard) one arriving flit."""
        packet = flit.packet
        target = flit.vc_hint
        if packet.dropped_cycle is not None:
            # The worm was aborted while this flit was on the wire; the
            # slot reserved at launch must be handed back.
            if isinstance(target, VirtualChannel):
                target.refund_slot()
                target.expected -= 1
            return
        if isinstance(target, VirtualChannel) and target.dead:
            # The VC died (runtime fault) while this flit was flying.
            target.refund_slot()
            target.expected -= 1
            self.network.drop_packet(packet, cycle, DropReason.ARRIVED_AT_DEAD)
            return
        flit.route = flit.lookahead_route
        flit.lookahead_route = None
        if target is EJECT:
            self.network.eject(flit, self.node, cycle, early=True)
            return
        target.push(flit)
        target.expected -= 1
        flit.arrival = cycle
        if self.network.trace is not None:
            from repro.instrumentation.trace import EventKind

            self.network.trace.record(
                cycle, EventKind.BUFFER, flit, self.node,
                f"vc {target.vc_class or target.port}:{target.index}",
            )
        if flit.is_head:
            target.active_pid = packet.pid
        if target.faulty:
            # Virtual Queuing handshake penalty (buffer-fault recovery).
            target.hold_until = max(target.hold_until, cycle + 2)
        self._activity.buffer_writes += 1

    @abc.abstractmethod
    def allocate(self, cycle: int) -> None:
        """Phase 3: route computation, VC allocation and switch allocation."""

    def traverse(self, cycle: int) -> None:
        """Phase 2: move last cycle's SA winners through the crossbar.

        Each grant is revalidated because a worm may have been purged
        (fault drop) between grant and traversal; a stale grant refunds
        the slot reserved at grant time.
        """
        winners, self._sa_winners = self._sa_winners, []
        for vc, out_dir, out_vc in winners:
            if vc.empty or vc.out_dir is not out_dir or vc.out_vc is not out_vc:
                if isinstance(out_vc, VirtualChannel):
                    out_vc.refund_slot()
                    out_vc.expected -= 1
                continue
            self._launch(vc, out_dir, cycle)

    # ------------------------------------------------------------------
    # Shared allocation helpers
    # ------------------------------------------------------------------

    def _request_vc_allocation(
        self,
        vc: VirtualChannel,
        out_dir: Direction,
        flit: Flit,
        requests: list,
        escape_only: bool = False,
    ) -> bool:
        """Stage a VC-allocation request for the worm draining ``vc``.

        Picks the preferred free downstream VC among the candidates the
        downstream router admits (the emptiest — the congestion signal of
        adaptive selection) and appends a pending request.  Competing
        requests for the same downstream VC are resolved once per cycle
        by :meth:`_resolve_vc_allocations` — the single-iteration
        separable VA of a real router, where losers must re-arbitrate
        next cycle.  Early-ejection and local-ejection targets are
        granted immediately (the PE sink is conflict-free).

        Returns True when a request was staged or granted, False when
        every admitting VC is currently owned by another worm (retry
        next cycle), and None when the path is *hard*-blocked — the
        output port is dead or the downstream router admits no VC for
        this packet at all.  Only hard blocks count towards the
        fault-drop timeout: congestion behind a live resource always
        drains eventually.
        """
        self._activity.va_requests += 1
        if out_dir is Direction.LOCAL:
            # Local ejection needs no downstream VC: the PE always sinks.
            vc.out_vc = EJECT
            vc.assign_route(out_dir)
            return True
        port = self.outputs.get(out_dir)
        if port is None or port.dead:
            return None
        packet = flit.packet
        candidates = port.downstream.vc_candidates(
            port.input_dir, packet, escape_only=escape_only
        )
        if not candidates:
            return None
        # Targets already requested this cycle (identity: VCs define no
        # ``__eq__``); usually none, so no container is built.
        staged = [req[3] for req in requests] if requests else ()
        cycle = self.network.cycle
        best: tuple[object, Direction | None] | None = None
        best_key = None
        for target, route in candidates:
            if target is EJECT:
                best = (target, route)
                break
            if target.owner_pid is not None:
                continue
            # Prefer un-contested targets, then the emptiest (the
            # congestion signal of adaptive selection); spreading over
            # equally-good VCs is what rotating input-stage arbiters do
            # in hardware.
            key = (target not in staged, target.credits(cycle))
            if best is None or key > best_key:
                best, best_key = (target, route), key
        if best is None:
            return False
        target, route = best
        if target is EJECT:
            vc.out_vc = EJECT
            vc.assign_route(out_dir)
            flit.lookahead_route = route
            return True
        requests.append((vc, out_dir, flit, target, route))
        return True

    #: VA arbitration iterations completed per cycle.  RoCo's 2v:1
    #: arbiters are small enough to re-arbitrate losers within the cycle
    #: (Figure 2); the generic router's 5v:1 arbiters are not — the
    #: "multiple iterative arbitrations" cost of Section 3.1.
    va_iterations = 1

    def _resolve_vc_allocations(self, requests: list, cycle: int) -> None:
        """Grant one winner per contended downstream VC (output-side VA).

        The rotation offset plays the role of the output arbiters'
        round-robin priority so persistent requesters are served fairly.
        Losing requests re-arbitrate against the remaining free VCs for
        as many iterations as the router's arbiters complete per cycle.
        """
        for _ in range(self.va_iterations):
            if not requests:
                return
            losers = self._resolve_va_iteration(requests, cycle)
            requests = []
            for vc, out_dir, flit in losers:
                self._request_vc_allocation(vc, out_dir, flit, requests)

    def _resolve_va_iteration(
        self, requests: list, cycle: int
    ) -> list[tuple[VirtualChannel, Direction, Flit]]:
        groups: dict[int, list] = {}
        for request in requests:
            groups.setdefault(id(request[3]), []).append(request)
        losers: list[tuple[VirtualChannel, Direction, Flit]] = []
        for group in groups.values():
            pick = cycle % len(group)
            for i, (vc, out_dir, flit, target, route) in enumerate(group):
                if i == pick:
                    target.claim(flit.packet.pid)
                    vc.out_vc = target
                    vc.assign_route(out_dir)
                    flit.lookahead_route = route
                    self.clear_stall(vc)
                else:
                    losers.append((vc, out_dir, flit))
        return losers

    def _vc_ready_for_switch(self, vc: VirtualChannel, cycle: int) -> bool:
        """Whether ``vc``'s front flit can compete for the crossbar now."""
        target = vc.out_vc
        if target is None or not vc.queue or vc.hold_until > cycle:
            return False
        out_dir = vc.out_dir
        if target is EJECT and out_dir is Direction.LOCAL:
            return True
        port = self.outputs.get(out_dir)
        if port is None or port.dead:
            return False
        if target is EJECT:
            return True
        return target.credits(cycle) > 0

    def _commit_switch_grant(self, vc: VirtualChannel, cycle: int) -> None:
        """Reserve the downstream slot for a flit that won SA this cycle."""
        if isinstance(vc.out_vc, VirtualChannel):
            vc.out_vc.reserve_slot(cycle)
            vc.out_vc.expected += 1
        self._sa_winners.append((vc, vc.out_dir, vc.out_vc))
        self.clear_stall(vc)

    def _tally_contention(self, vcs) -> None:
        """Figure-3 bookkeeping, shared across architectures.

        Every buffered worm with a committed output direction is a
        standing request on that crossbar output; a request *contends*
        when at least one other worm wants the same output this cycle.
        Requests are classified by the output's dimension (row =
        East/West); local ejection is not a crossbar contention point.

        ``vcs`` must cover every occupied VC of the router (empty ones
        are skipped here, so a superset is fine).
        """
        north = east = south = west = 0
        for vc in vcs:
            out_dir = vc.out_dir
            if out_dir is None or not vc.queue:
                continue
            if out_dir is Direction.EAST:
                east += 1
            elif out_dir is Direction.WEST:
                west += 1
            elif out_dir is Direction.NORTH:
                north += 1
            elif out_dir is Direction.SOUTH:
                south += 1
        if not (north or east or south or west):
            return
        contention = self.network.stats.contention
        contention.row_requests += east + west
        contention.row_contended += (east if east > 1 else 0) + (
            west if west > 1 else 0
        )
        contention.column_requests += north + south
        contention.column_contended += (north if north > 1 else 0) + (
            south if south > 1 else 0
        )

    # ------------------------------------------------------------------
    # Switch traversal helpers
    # ------------------------------------------------------------------

    def _launch(self, vc: VirtualChannel, out_dir: Direction, cycle: int) -> None:
        """Move the front flit of ``vc`` through the crossbar and out."""
        target = vc.out_vc
        flit = vc.pop(cycle)
        stats = self._activity
        stats.buffer_reads += 1
        stats.crossbar_traversals += 1
        if out_dir is Direction.LOCAL:
            self.network.eject(flit, self.node, cycle, early=False)
            return
        flit.vc_hint = target
        if flit.is_head:
            # Hop accounting counts real link traversals, not the
            # minimal distance — the head threads the path for the worm.
            flit.packet.hops += 1
        if self.network.trace is not None:
            from repro.instrumentation.trace import EventKind

            self.network.trace.record(
                cycle, EventKind.TRAVERSE, flit, self.node, f"-> {out_dir.name}"
            )
        port = self.outputs[out_dir]
        port.link.send(flit, cycle)
        # The receiver must be stepped when the flit lands; until then it
        # has nothing to do, so the wake is deferred to the landing cycle
        # and tagged with the input link the flit arrives on.
        self.network.schedule_wake(
            port.downstream, port.input_dir, cycle + port.link.delay
        )
        stats.link_flits += 1
        if flit.closes_worm and isinstance(target, VirtualChannel):
            target.release_owner()

    # ------------------------------------------------------------------
    # Fault support
    # ------------------------------------------------------------------

    def note_stall(self, vc: VirtualChannel, cycle: int) -> None:
        """Track a blocked head flit; drop its packet past the timeout.

        Only active in faulty networks — a fault-free run never discards
        traffic (Section 5.4 termination rules).
        """
        if not self.network.has_faults:
            return
        key = id(vc)
        start = self._stall_since.setdefault(key, cycle)
        if cycle - start >= self.network.config.fault_drop_timeout:
            front = vc.front
            if front is not None:
                self.network.drop_packet(
                    front.packet, cycle, DropReason.STALL_TIMEOUT
                )
            self._stall_since.pop(key, None)

    def _hard_blocked(self, vc: VirtualChannel, cycle: int, attempts: int) -> None:
        """End a VA attempt that every candidate output hard-blocked.

        ``attempts`` is the number of :meth:`_request_vc_allocation`
        calls it made.  Only a fault event can change such a verdict, so
        outside the full-sweep reference the VC keeps it for this fault
        epoch and :meth:`_blocked_again` replays it.
        """
        network = self.network
        if network.has_faults and not network.full_sweep:
            vc.verdict = (network.fault_epoch, vc.queue[0].packet.pid, attempts)
            self._blocked_cycle = cycle
        self.note_stall(vc, cycle)

    def _blocked_again(self, vc: VirtualChannel, cycle: int) -> bool:
        """Replay ``vc``'s kept verdict (not None) if it still holds;
        True if it did.

        The replay is what routing and VA would do: the same VA requests
        and the same :meth:`note_stall` call.
        """
        verdict = vc.verdict
        if (
            verdict[0] != self.network.fault_epoch
            or verdict[1] != vc.queue[0].packet.pid
        ):
            return False
        self._activity.va_requests += verdict[2]
        self._blocked_cycle = cycle
        self.note_stall(vc, cycle)
        return True

    def clear_stall(self, vc: VirtualChannel) -> None:
        if self._stall_since:
            self._stall_since.pop(id(vc), None)

    def purge_packet(self, pid: int, cycle: int) -> None:
        """Remove every flit of a dropped packet held in this router.

        Runs on every router for every drop, and nearly every VC it
        meets is empty and unrelated: those cost two attribute probes.
        """
        for vc in self.all_vcs():
            if vc.owner_pid == pid:
                vc.release_owner()
            if (vc.queue or vc.active_pid == pid) and vc.purge(pid, cycle):
                self.rouse()

    def reroute_after_fault(self, vc: VirtualChannel) -> None:
        """Recompute a committed look-ahead route invalidated by a fault.

        Called by the runtime fault engine for worms whose head sits in
        ``vc`` with a pre-computed route that a topology event just
        killed.  Architectures that compute routes locally on arrival
        (generic, Path-Sensitive) self-heal in their next allocate pass,
        so the default is a no-op; RoCo overrides this because its
        look-ahead routes are committed upstream.
        """

    @abc.abstractmethod
    def all_vcs(self) -> list[VirtualChannel]:
        """Every VC buffer in the router (fault injection / purging)."""

    # ------------------------------------------------------------------
    # Shared small utilities
    # ------------------------------------------------------------------

    def _discard_dropped_front(self, vc: VirtualChannel, cycle: int) -> None:
        """Flush flits whose packet was dropped while queued here."""
        queue = vc.queue
        while queue and queue[0].packet.dropped_cycle is not None:
            vc.pop(cycle)

    def _output_alive(self, d: Direction) -> bool:
        if d is Direction.LOCAL:
            return True
        port = self.outputs.get(d)
        return port is not None and not port.dead

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.node})"
