"""Shared wormhole-router machinery.

All three architectures (generic, Path-Sensitive, RoCo) are two-stage
pipelined wormhole routers with credit-based virtual-channel flow control.
This module owns everything they share:

* the VA front end: head staging, the RC cycle of routers without
  look-ahead routing, and VC allocation against the downstream router's
  exposed VCs,
* switch-grant commitment (credit reservation) and flit launch,
* the shared switch-traversal phase with stale-grant revalidation,
* packet dropping and worm purging in faulty networks,
* the stall-timeout machinery the fault model uses.

Subclasses define their own buffer organisation, choose a head's route
(``_request_va``) and implement the rest of the ``allocate`` pipeline
phase (speculative SA); traversal is identical across architectures and
lives here.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.core.buffer import CREDIT_LATENCY, VirtualChannel
from repro.core.channel import Channel
from repro.core.types import (
    CARDINALS,
    EAST,
    LOCAL,
    NORTH,
    SOUTH,
    WEST,
    Direction,
    DropReason,
    Flit,
    NodeId,
    Packet,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from collections.abc import Sequence

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

#: Nap deadline of a router waiting only for credits that no release has
#: announced yet: a credit hook (BaseRouter.credit_due) sets the real one.
_NEVER = 1 << 62


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
    #: Whether every step books the contention tally, ready VC or not
    #: (generic, Path-Sensitive); a nap then books it per skipped step.
    idle_tally = True
    #: Whether the architecture routes one hop ahead (Section 3.1: RoCo
    #: and Path-Sensitive), so a buffered head skips Routing Computation.
    routes_ahead = True

    def __init__(self, node: NodeId, network: "Network") -> None:
        # A router instance may carry at most 30 attributes, these and
        # its subclass's together (RoCo has 29): CPython 3.11's shared
        # instance keys stop at 30, and past them every attribute load
        # of the cycle loop is slower (tests/test_routers_structure.py).
        # New per-VC wait state goes in VirtualChannel's slots instead.
        self.node = node
        self.network = network
        self.config = network.config.router_config
        self.routing = network.routing
        #: Whether a head spends its arrival cycle in Routing Computation
        #: before VA: always without look-ahead routing, and in the
        #: ``lookahead_routing=False`` ablation of the routers that have it.
        self._charges_rc = not (self.routes_ahead and self.config.lookahead_routing)
        #: Output ports for the cardinals wired to neighbours that exist;
        #: border directions are simply absent.
        self.outputs: dict[Direction, OutputPort] = {}
        neighbors = network.topology.neighbors(node)
        for d in CARDINALS:
            if neighbors[d] is not None:
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
        #: Cycles this router was logically stepped (scheduler telemetry),
        #: counted by the network each cycle, a napping one's included.
        self.steps_taken = 0
        #: Place in the network's row-major stepping order (set by it).
        self._index = -1
        #: A *nap* (see :meth:`nap`): None while awake, else the cycle the
        #: router must be stepped again by — its earliest stall deadline,
        #: hold or credit (an owner wait sets none) — or 0 once something
        #: roused it.
        self._nap_until: int | None = None
        #: First cycle of the current nap, the VA requests each of its
        #: cycles makes (the attempts of its kept verdicts and owner
        #: waits) and, for an ``idle_tally`` router, the contention each
        #: books: ``(row requests, row contended, column requests, column
        #: contended)``.
        self._nap_from = 0
        self._nap_va = 0
        self._nap_tally: tuple[int, int, int, int] | None = None
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
        self, input_dir: Direction, packet: Packet
    ) -> Sequence[tuple[object, Direction | None]]:
        """Admission options for a head flit arriving on ``input_dir``.

        Returns ``(target, route_here)`` pairs where ``target`` is either
        a :class:`VirtualChannel` of this router or :data:`EJECT` (early
        ejection, paired with ``Direction.LOCAL``).  ``route_here`` is the
        committed look-ahead route at this router, or None for
        architectures that compute routes locally on arrival.
        """

    def accepting(self, input_dir: Direction) -> bool:
        """Whether this input still accepts traffic (fault handshake)."""
        return not self.dead

    def accepting_any_injection(self) -> bool:
        """Whether the local PE can still source packets at all."""
        return not self.dead

    def wire(self) -> None:
        """Attach output ports to neighbours; called once, before traffic."""
        network = self.network
        neighbors = network.topology.neighbors(self.node)
        for d, port in self.outputs.items():
            neighbor = network.router_at(neighbors[d])
            port.downstream = neighbor
            port.dead = not neighbor.accepting(port.input_dir)
        in_links = []
        for d in CARDINALS:
            neighbor_node = neighbors[d]
            if neighbor_node is None:
                continue
            up_port = network.router_at(neighbor_node).outputs.get(d.opposite)
            if up_port is not None:
                in_links.append((d, up_port.link))
        self._in_links = tuple(in_links)
        self._in_link_map = dict(in_links)
        self._vc_cache = tuple(self.all_vcs())

    def teardown(self) -> None:
        """Drop the references that close cycles through this router:
        to its network, to the neighbours its ports and VCs name, and
        from its VCs and their queued flits back to it (Network.teardown).
        """
        self.network = None
        for port in self.outputs.values():
            port.downstream = None
        for vc in self.all_vcs():
            vc.router = vc.waiter = vc.owner_waiters = vc.owner_wait = None
            for flit in vc.queue:
                flit.vc_hint = None

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
        """Leave the stepped list while no step can change anything.

        Called after the allocate phase of a faulty network's router
        with no SA winner.  Every occupied VC must be one of:

        * *blocked*: its head holds a current kept verdict, so each step
          would repeat the same :meth:`_blocked_again` call until the
          stall deadline, where :meth:`note_stall` drops the packet;
        * *owner-waiting*: its head holds a current owner wait
          (:meth:`_await_owners`) and every VC it names is still owned
          *now*, after the whole allocate loop, so each step would make
          the same VA requests and find them all owned again;
        * *starved*: its worm holds an output VC but cannot compete for
          the switch next cycle — its ``hold_until`` lies ahead, or the
          output VC has no credit for it — so each step only tallies it.

        The router then naps until the earliest stall deadline, hold or
        announced credit release.  It stays in the active list the
        network freezes each cycle (counted in ``router_steps`` and
        ``steps_taken``, shown to ``on_cycle_stepped``), but each loop
        passes it by until that deadline or until it is roused
        (:meth:`rouse`, :meth:`credit_due`: each starved VC's output VC
        names this router its ``waiter``, each awaited VC lists it in
        its ``owner_waiters``); :meth:`settle_nap` then books what the
        skipped steps would have.  Returns whether it napped.
        """
        if self.dead:
            return False
        network = self.network
        epoch = network.fault_epoch
        since = self._stall_since
        timeout = network.config.fault_drop_timeout
        outputs = self.outputs
        after = cycle + 1
        tally = [0] * 5 if self.idle_tally else None
        until = None
        va = 0
        awaited = []
        for vc in self._vc_cache:
            queue = vc.queue
            if not queue:
                continue
            target = vc.out_vc
            if target is None:
                pid = queue[0].packet.pid
                verdict = vc.verdict
                if verdict is not None and verdict[0] == epoch and verdict[1] == pid:
                    # Replaying a verdict noted the stall.
                    deadline = since[id(vc)] + timeout
                    va += verdict[2]
                else:
                    # Checked now, not at VA time: an owner may have
                    # released (and another claimed) the VC since.
                    wait = vc.owner_wait
                    if wait is None or wait[0] != epoch or wait[1] != pid:
                        return False
                    for owned in wait[3]:
                        if owned.owner_pid is None:
                            return False
                    awaited += wait[3]
                    deadline = _NEVER
                    va += wait[2]
            else:
                deadline = vc.hold_until
                if deadline <= after:
                    # Starved of credit, or ready next cycle: the test of
                    # :meth:`_vc_ready_for_switch`, one cycle ahead.
                    if target is EJECT or target._available > 0:
                        return False
                    port = outputs.get(vc.out_dir)
                    if port is None or port.dead:
                        return False
                    releases = target._releases
                    if releases:
                        deadline = releases[0]
                        if deadline <= after:
                            return False
                    else:
                        deadline = _NEVER
                    target.waiter = self
                if tally is not None:
                    tally[vc.out_dir] += 1
            if until is None or deadline < until:
                until = deadline
        if until is None:
            return False  # a drop this cycle emptied the router
        for owned in awaited:
            waiters = owned.owner_waiters
            if waiters is None:
                owned.owner_waiters = [self]
            elif self not in waiters:
                waiters.append(self)
        self._nap_until = until
        self._nap_from = after
        self._nap_va = va
        if tally is not None:
            north, east, south, west = tally[:4]
            self._nap_tally = (
                east + west,
                (east if east > 1 else 0) + (west if west > 1 else 0),
                north + south,
                (north if north > 1 else 0) + (south if south > 1 else 0),
            )
        return True

    def rouse(self) -> None:
        """End a nap: something may have changed what a step would do.

        The network settles the nap at the next of its loops to reach
        this router's row-major place: the allocate loop's, if it is
        still ahead (the router allocates there, in this cycle), else
        the quiescence loop's (its step this cycle was the nap's).
        """
        if self._nap_until is not None:
            self._nap_until = 0

    def credit_due(self, cycle: int) -> None:
        """A VC this router may wait on for a credit gets one at ``cycle``
        (a release, or now for a refund): a nap must end by then."""
        until = self._nap_until
        if until is not None and cycle < until:
            if cycle <= self.network.cycle:
                self.rouse()
            else:
                self._nap_until = cycle

    def settle_nap(self, cycle: int) -> None:
        """End a nap, booking the VA requests and contention tally of its
        skipped steps, ``_nap_from`` up to ``cycle`` (excluded)."""
        slept = cycle - self._nap_from
        self._activity.va_requests += slept * self._nap_va
        tally = self._nap_tally
        if tally is not None:
            contention = self.network.stats.contention
            contention.row_requests += slept * tally[0]
            contention.row_contended += slept * tally[1]
            contention.column_requests += slept * tally[2]
            contention.column_contended += slept * tally[3]
            self._nap_tally = None
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
        network = self.network
        if network.trace is not None:
            for d in dirs:
                for flit in link_map[d].deliver(cycle):
                    self._accept_flit(flit, d, cycle)
            return
        # ``Channel.deliver`` and :meth:`_accept_flit` inlined.  On a
        # faulty network an arrival may belong to a packet dropped while
        # it flew, or land in a VC that died meanwhile: either hands back
        # the slot reserved at launch, and the second drops the packet.
        activity = self._activity
        has_faults = network.has_faults
        for d in dirs:
            in_flight = link_map[d]._in_flight
            while in_flight and in_flight[0][0] <= cycle:
                flit = in_flight.pop(0)[1]
                target = flit.vc_hint
                if has_faults:
                    packet = flit.packet
                    if packet.dropped_cycle is not None:
                        if target is not EJECT:
                            target.refund_slot()
                            target.expected -= 1
                        continue
                    if target is not EJECT and target.dead:
                        target.refund_slot()
                        target.expected -= 1
                        network.drop_packet(packet, cycle, DropReason.ARRIVED_AT_DEAD)
                        continue
                flit.route = flit.lookahead_route
                flit.lookahead_route = None
                if target is EJECT:
                    network.eject(flit, self.node, cycle, early=True)
                    continue
                queue = target.queue
                faulty = target.faulty
                if len(queue) >= (1 if faulty else target.depth):
                    target.push(flit)  # raises the overflow error
                queue.append(flit)
                target.expected -= 1
                flit.arrival = cycle
                if flit.is_head:
                    target.active_pid = flit.packet.pid
                if faulty:
                    target.hold_until = max(target.hold_until, cycle + 2)
                activity.buffer_writes += 1

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
        winners = self._sa_winners
        if not winners:
            return
        self._sa_winners = []
        network = self.network
        if network.trace is not None or network.full_sweep:
            for vc, out_dir, out_vc in winners:
                if vc.empty or vc.out_dir is not out_dir or vc.out_vc is not out_vc:
                    if isinstance(out_vc, VirtualChannel):
                        out_vc.refund_slot()
                        out_vc.expected -= 1
                    continue
                self._launch(vc, out_dir, cycle)
            return
        # :meth:`_launch` inlined, with ``VirtualChannel.pop`` and
        # ``Channel.send``; the landing wake still goes through
        # ``Network.schedule_wake``, which a tile overrides.
        stats = self._activity
        outputs = self.outputs
        release = cycle + CREDIT_LATENCY
        for vc, out_dir, target in winners:
            queue = vc.queue
            if not queue or vc.out_dir is not out_dir or vc.out_vc is not target:
                if isinstance(target, VirtualChannel):
                    target.refund_slot()
                    target.expected -= 1
                continue
            flit = queue.pop(0)
            vc._releases.append(release)
            if vc.waiter is not None:
                vc.waiter.credit_due(release)
            closes = flit.closes_worm
            if closes:
                vc.out_dir = vc.out_vc = vc.active_pid = None
            stats.buffer_reads += 1
            stats.crossbar_traversals += 1
            if out_dir is LOCAL:
                network.eject(flit, self.node, cycle, early=False)
                continue
            flit.vc_hint = target
            if flit.is_head:
                flit.packet.hops += 1
            port = outputs[out_dir]
            link = port.link
            arrival = cycle + link.delay
            in_flight = link._in_flight
            if in_flight and in_flight[-1][0] >= arrival:
                link.send(flit, cycle)  # raises the bandwidth error
            in_flight.append((arrival, flit))
            link.sends += 1
            network.schedule_wake(port.downstream, port.input_dir, arrival)
            stats.link_flits += 1
            if closes and target is not EJECT:
                target.owner_pid = None  # ``release_owner``, inlined
                if target.owner_waiters is not None:
                    target.rouse_owner_waiters()

    # ------------------------------------------------------------------
    # Shared allocation helpers
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _request_va(
        self, vc: VirtualChannel, cycle: int, va_requests: list
    ) -> None:
        """Route the head at the front of ``vc`` and stage its VA request.

        The architecture's route choice, called once per step for each
        unallocated head past Routing Computation.  It replays the VC's
        kept verdict first (:meth:`_blocked_again`), and ends with a
        staged request or grant, a kept verdict or a cleared stall.
        """

    def _stage_heads(
        self, occupied: list[VirtualChannel], cycle: int, va_requests: list
    ) -> list[VirtualChannel]:
        """The VA front end of a step that finds several occupied VCs.

        Walks ``occupied`` in order: flushes fronts of dropped packets,
        notes the front head's packet in ``active_pid`` and, for a head
        without an output VC that is past Routing Computation, stages
        its request through :meth:`_request_va`.  Returns the VCs that
        requested, in order; the caller resolves ``va_requests``.
        """
        has_faults = self.network.has_faults
        charges_rc = self._charges_rc
        requested = []
        for vc in occupied:
            queue = vc.queue
            if not queue:
                continue
            front = queue[0]
            if has_faults and front.packet.dropped_cycle is not None:
                self._discard_dropped_front(vc, cycle)
                if not queue:
                    continue
                front = queue[0]
            if not front.is_head:
                continue
            if vc.active_pid is None:
                vc.active_pid = front.packet.pid
            if vc.out_vc is None:
                if charges_rc and front.arrival >= cycle:
                    continue  # the head spends this cycle in RC
                self._request_va(vc, cycle, va_requests)
                requested.append(vc)
        return requested

    def _request_routes(
        self,
        vc: VirtualChannel,
        routes: Sequence[Direction],
        cycle: int,
        va_requests: list,
    ) -> bool:
        """Request VA for ``vc``'s head on the first of the ordered
        ``routes`` that stages or grants it; True if one did.

        Otherwise the head keeps a hard-block verdict when every route
        hard-blocked (:meth:`_hard_blocked`); when one found every VC
        owned, its stall is cleared and it keeps an owner wait
        (:meth:`_await_owners`).
        """
        front = vc.queue[0]
        all_hard = True
        attempts = 0
        for out_dir in routes:
            attempts += 1
            outcome = self._request_vc_allocation(vc, out_dir, front, va_requests)
            if outcome:
                return True
            if outcome is False:
                all_hard = False
        if all_hard:
            self._hard_blocked(vc, cycle, attempts)
        else:
            self.clear_stall(vc)
            if self.network.has_faults:
                self._await_owners(vc, routes, attempts)
        return False

    def _request_vc_allocation(
        self,
        vc: VirtualChannel,
        out_dir: Direction,
        flit: Flit,
        requests: list,
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
        if out_dir is LOCAL:
            # Local ejection needs no downstream VC: the PE always sinks.
            vc.out_vc = EJECT
            vc.assign_route(out_dir)
            return True
        port = self.outputs.get(out_dir)
        if port is None or port.dead:
            return None
        packet = flit.packet
        candidates = port.downstream.vc_candidates(port.input_dir, packet)
        if not candidates:
            return None
        # Targets already requested this cycle (identity: VCs define no
        # ``__eq__``); usually none, so no container is built.
        staged = [req[3] for req in requests] if requests else None
        cycle = self.network.cycle
        best = best_route = None
        best_contested = False
        best_credits = 0
        for target, route in candidates:
            if target is EJECT:
                best, best_route = target, route
                break
            if target.owner_pid is not None:
                continue
            # Prefer un-contested targets, then the emptiest (the
            # congestion signal of adaptive selection); spreading over
            # equally-good VCs is what rotating input-stage arbiters do
            # in hardware.  ``credits(cycle)``, inlined.
            releases = target._releases
            if releases and releases[0] <= cycle:
                target._refresh(cycle)
            credits = target._available
            contested = staged is not None and target in staged
            if (
                best is None
                or (best_contested and not contested)
                or (contested is best_contested and credits > best_credits)
            ):
                best, best_route = target, route
                best_contested, best_credits = contested, credits
        if best is None:
            return False
        target, route = best, best_route
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
        if len(requests) == 1:
            # A lone request wins its target and leaves no loser.
            vc, out_dir, flit, target, route = requests[0]
            target.claim(flit.packet.pid)
            vc.out_vc = target
            vc.out_dir = out_dir
            flit.lookahead_route = route
            if self._stall_since:
                self._stall_since.pop(id(vc), None)
            return
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
        if target is EJECT and out_dir is LOCAL:
            return True
        port = self.outputs.get(out_dir)
        if port is None or port.dead:
            return False
        if target is EJECT:
            return True
        return target.credits(cycle) > 0

    def _commit_switch_grant(self, vc: VirtualChannel, cycle: int) -> None:
        """Reserve the downstream slot for a flit that won SA this cycle."""
        target = vc.out_vc
        if isinstance(target, VirtualChannel):
            # ``reserve_slot``, inlined: refresh only when a release is due.
            releases = target._releases
            if releases and releases[0] <= cycle:
                target._refresh(cycle)
            if target._available <= 0:
                target.reserve_slot(cycle)  # raises the underflow error
            target._available -= 1
            target.expected += 1
        self._sa_winners.append((vc, vc.out_dir, target))
        if self._stall_since:
            self._stall_since.pop(id(vc), None)

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
            if out_dir is EAST:
                east += 1
            elif out_dir is WEST:
                west += 1
            elif out_dir is NORTH:
                north += 1
            elif out_dir is SOUTH:
                south += 1
        self._add_contention((north, east, south, west))

    def _add_contention(self, tally: Sequence[int]) -> None:
        """Book one tally: the standing requests on each crossbar output,
        indexed by output direction (North, East, South, West first)."""
        north, east, south, west = tally[:4]
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

    def _ready_walk(
        self,
        occupied: list[VirtualChannel],
        cycle: int,
        tally: list[int],
        arbitrates: bool = True,
    ) -> list[VirtualChannel]:
        """The multi-VC body's one walk over ``occupied`` after VA.

        Counts every routed worm in ``tally`` (five slots, indexed by
        output direction; :meth:`_add_contention` books it) and returns,
        in order, the VCs :meth:`_vc_ready_for_switch` passes — none
        unless ``arbitrates``.  Credits are refreshed only when a release
        is due, as ``credits()`` does.  The full sweep keeps the two
        separate walks: it is the reference this one is checked against.
        """
        outputs = self.outputs
        ready = []
        for vc in occupied:
            out_dir = vc.out_dir
            if out_dir is None or not vc.queue:
                continue
            tally[out_dir] += 1
            target = vc.out_vc
            if not arbitrates or target is None or vc.hold_until > cycle:
                continue
            if target is not EJECT or out_dir is not LOCAL:
                port = outputs.get(out_dir)
                if port is None or port.dead:
                    continue
                if target is not EJECT:
                    releases = target._releases
                    if releases and releases[0] <= cycle:
                        target._refresh(cycle)
                    if target._available <= 0:
                        continue
            ready.append(vc)
        return ready

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
        if out_dir is LOCAL:
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
        self.note_stall(vc, cycle)

    def _await_owners(
        self, vc: VirtualChannel, routes: Sequence[Direction], attempts: int
    ) -> None:
        """Keep the owner wait of a VA attempt on ``routes`` that found no
        free VC: every admissible VC of a live route owned by another
        worm, the other routes hard-blocked.  ``attempts`` is the number
        of :meth:`_request_vc_allocation` calls it made.

        Only a fault event, or one of those VCs losing its owner, can
        change how such an attempt ends, and :meth:`nap` checks the
        owners; outside the full-sweep reference the VC keeps the wait.
        Its routes, VCs and attempts are fixed by the fault epoch and
        the packet, so a wait already kept for the two stands.
        """
        network = self.network
        if network.full_sweep:
            return
        epoch = network.fault_epoch
        packet = vc.queue[0].packet
        wait = vc.owner_wait
        if wait is not None and wait[0] == epoch and wait[1] == packet.pid:
            return
        owned = []
        outputs = self.outputs
        for out_dir in routes:
            port = outputs.get(out_dir)
            if port is not None and not port.dead:
                for target, _route in port.downstream.vc_candidates(
                    port.input_dir, packet
                ):
                    owned.append(target)
        vc.owner_wait = (epoch, packet.pid, attempts, tuple(owned))

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
        self.note_stall(vc, cycle)
        return True

    def clear_stall(self, vc: VirtualChannel) -> None:
        if self._stall_since:
            self._stall_since.pop(id(vc), None)

    def purge_packet(self, pid: int, cycle: int) -> None:
        """Remove every flit of a dropped packet held in this router.

        Runs on every router the packet reached (``Network.drop_packet``),
        and most VCs it meets are empty or unrelated: those cost two
        attribute probes.
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
        """Flush flits whose packet was dropped while queued here.

        The allocate paths call it only when the front flit's packet was
        dropped; the full-sweep reference calls it for every VC."""
        queue = vc.queue
        while queue and queue[0].packet.dropped_cycle is not None:
            vc.pop(cycle)

    def _output_alive(self, d: Direction) -> bool:
        if d is LOCAL:
            return True
        port = self.outputs.get(d)
        return port is not None and not port.dead

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.node})"
