"""The generic 2-stage virtual-channel router (paper Figure 1(a)).

Five physical ports (N, E, S, W, PE), each with ``v`` VCs, a monolithic
5x5 crossbar, a separable VA and a two-stage SA (a v:1 arbiter per input
port followed by a 5:1 arbiter per output port).  Every flit — including
flits ejecting to the local PE — takes switch allocation and switch
traversal, which is exactly the 2-cycle cost RoCo's early ejection saves.

Adaptive routing uses VC 0 of every port as the Duato escape channel:
a worm occupying VC 0 routes dimension-ordered (XY) from that node.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import groupby
from operator import attrgetter

from repro.arbiters.round_robin import RoundRobinArbiter, one_hot
from repro.core.buffer import VirtualChannel
from repro.core.types import (
    ADAPTIVE,
    EAST,
    LOCAL,
    NORTH,
    SOUTH,
    WEST,
    Direction,
    NodeId,
    Packet,
)
from repro.routers.base import BaseRouter

#: Port order of the generic router: the four cardinals plus the PE port.
GENERIC_PORTS = (NORTH, EAST, SOUTH, WEST, LOCAL)


#: Groups a port-ordered VC list by input port (SA stage 1).
_INPUT_DIR = attrgetter("input_dir")

#: SA stage-2 lines of a lone nominee, by input port (= line index).
_PORT_LINES = one_hot(len(GENERIC_PORTS))


class GenericRouter(BaseRouter):
    """Baseline 5-port wormhole router with a full crossbar."""

    architecture = "generic"
    #: Routes are computed locally, so every head pays the RC cycle.
    routes_ahead = False

    def __init__(self, node: NodeId, network) -> None:
        super().__init__(node, network)
        v = self.config.vcs_per_port
        depth = self.config.buffer_depth
        self.ports: dict[Direction, list[VirtualChannel]] = {}
        for d in GENERIC_PORTS:
            vcs = []
            for i in range(v):
                vc = VirtualChannel(port=int(d), index=i, depth=depth)
                vc.router = self
                vc.input_dir = d
                vc.accepts_from = (d,)
                vc.escape = i == 0
                vcs.append(vc)
            self.ports[d] = vcs
        #: Flat VC list in port order; built once — the activity
        #: scheduler's idle checks walk this every active cycle.
        self._vcs = [vc for d in GENERIC_PORTS for vc in self.ports[d]]
        #: SA stage 1: one v:1 arbiter per input port.
        self._sa_stage1 = {d: RoundRobinArbiter(v) for d in GENERIC_PORTS}
        #: SA stage 2: one 5:1 arbiter per output port.
        self._sa_stage2 = {
            d: RoundRobinArbiter(len(GENERIC_PORTS)) for d in GENERIC_PORTS
        }
        #: SA stage-1 lines of a lone requester, by VC index.
        self._vc_lines = one_hot(v)
        #: Mesh admission options per input port (:meth:`vc_candidates`),
        #: built once and shared by every caller.
        self._admission = {
            d: tuple((vc, None) for vc in vcs) for d, vcs in self.ports.items()
        }
        self._torus = network.topology.name == "torus"

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def all_vcs(self) -> list[VirtualChannel]:
        return self._vcs

    def vc_candidates(
        self, input_dir: Direction, packet: Packet
    ) -> Sequence[tuple[object, Direction | None]]:
        """All VCs of the facing input port; routes are computed locally.

        On a torus, the admitting VCs are restricted by the Dally-Seitz
        dateline class of the ring the flit travels: VCs 0 and 2 before
        the packet crosses the dimension's wrap edge, VC 1 after.  The
        class partition is strict — sharing a VC between the classes
        would re-close the ring's channel-dependency cycle.
        """
        if self.dead:
            return []
        if self._torus and input_dir is not LOCAL:
            vcs = self.ports[input_dir]
            if self._ring_class(input_dir, packet):
                return [(vcs[1], None)]
            return [(vcs[0], None), (vcs[2], None)]
        return self._admission[input_dir]

    def _ring_class(self, input_dir: Direction, packet: Packet) -> int:
        """Dateline class of the channel feeding ``input_dir`` here."""
        from repro.core.topology import torus_ring_class

        if input_dir.is_row:
            return torus_ring_class(
                packet.src.x, self.node.x, packet.dest.x, self.network.config.width
            )
        return torus_ring_class(
            packet.src.y, self.node.y, packet.dest.y, self.network.config.height
        )

    # ------------------------------------------------------------------
    # Injection interface (used by the traffic source)
    # ------------------------------------------------------------------

    def injection_vc_for(self, packet: Packet):
        """A free local-port VC able to accept a new packet's head flit.

        Returns ``(vc, route)``; the route is None because the generic
        router computes routes locally (no look-ahead commitment).
        """
        if self.dead:
            return None
        for vc in self.ports[LOCAL]:
            if vc.injectable(self.network.cycle):
                return vc, None
        return None

    def injection_possible(self, packet: Packet) -> bool:
        """Whether this packet could ever be injected here (fault view)."""
        return not self.dead

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------

    def allocate(self, cycle: int) -> None:
        if self.dead:
            return
        # Occupancy first: a router step finds one to three of its 15 VCs
        # holding a flit, and an empty VC has nothing to route, allocate,
        # arbitrate or tally.  Every sub-phase below walks ``occupied``
        # (port order, like ``_vcs``) and re-probes ``vc.queue``, because
        # a fault drop during VA may purge a worm mid-walk; allocation
        # never *adds* a flit.  An empty list means the router is awake
        # only for an arrival still on the wire.
        occupied = [vc for vc in self._vcs if vc.queue]
        if not occupied:
            return
        if self.network.full_sweep:
            # The reference: the general body through the helper calls,
            # the ``ready`` list and ``groupby`` pools, kept apart from
            # the one walk below so that the differential oracle
            # compares the one walk and the lone path against an
            # independent body.

            # RC + VA (in parallel with SA in stage 1; speculation is modelled
            # by letting a worm that allocates this cycle also compete for the
            # switch this cycle).  Requests for the same downstream VC are
            # resolved by the output-side arbiters, one winner per cycle.
            has_faults = self.network.has_faults
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
                    if front.arrival >= cycle:
                        # Without look-ahead routing the head spends this
                        # cycle in Routing Computation (Section 3.1: RoCo
                        # and Path-Sensitive pre-compute the route one
                        # step ahead and skip this stage).
                        continue
                    self._request_va(vc, cycle, va_requests)
                    newly_allocated.append(vc)
            if va_requests:
                self._resolve_vc_allocations(va_requests, cycle)

            # Switch readiness is decided once per occupied VC and shared by
            # the contention tally and both SA stages.
            ready = [vc for vc in occupied if self._vc_ready_for_switch(vc, cycle)]
            self._tally_contention(occupied)
            if not ready:
                return
            self.network.stats.activity.sa_requests += len(ready)

            # SA stage 1: each input port nominates one ready VC.  Worms
            # whose VA succeeded only this cycle are *speculative* SA
            # requesters and, per the Peh-Dally priority rule the generic
            # router implements, lose to any non-speculative request — both
            # within a port and at the output arbiters.  This speculation
            # failure under load is the pipeline-stall contention cost the
            # paper charges the generic design with.
            vcs_per_port = self.config.vcs_per_port
            nominees: dict[Direction, VirtualChannel] = {}
            speculative: list[Direction] = []
            for d, group in groupby(ready, _INPUT_DIR):
                group = list(group)
                pool = [vc for vc in group if vc not in newly_allocated]
                if not pool:
                    pool = group
                    speculative.append(d)
                lines = [False] * vcs_per_port
                for vc in pool:
                    lines[vc.index] = True
                nominees[d] = self.ports[d][self._sa_stage1[d].grant(lines)]

            # SA stage 2: each output port arbitrates among nominating inputs,
            # non-speculative requests first.  Outputs are served in the order
            # their first nominee appears (port order): grant order is the
            # next cycle's launch order.
            served: list[Direction] = []
            for vc in nominees.values():
                out_dir = vc.out_dir
                if out_dir in served:
                    continue
                served.append(out_dir)
                requesters = [d for d, n in nominees.items() if n.out_dir is out_dir]
                pool = [d for d in requesters if d not in speculative] or requesters
                lines = [False] * len(GENERIC_PORTS)
                for d in pool:
                    lines[d] = True
                winner = self._sa_stage2[out_dir].grant(lines)
                self._commit_switch_grant(nominees[GENERIC_PORTS[winner]], cycle)
            return
        if len(occupied) == 1:
            self._allocate_lone(occupied[0], cycle)
            return
        # RC + VA (in parallel with SA in stage 1; speculation is modelled
        # by letting a worm that allocates this cycle also compete for the
        # switch this cycle).  Requests for the same downstream VC are
        # resolved by the output-side arbiters, one winner per cycle.
        va_requests: list = []
        newly_allocated = self._stage_heads(occupied, cycle, va_requests)
        if va_requests:
            self._resolve_vc_allocations(va_requests, cycle)

        # One walk after VA (``_ready_walk``) takes the contention tally
        # and the VCs ready for the switch; each raises its line in its
        # input port's SA stage-1 request.  Worms whose VA succeeded only
        # this cycle are *speculative* SA requesters and, per the
        # Peh-Dally priority rule the generic router implements, lose to
        # any non-speculative request — both within a port and at the
        # output arbiters — so a port's lines are its non-speculative
        # requesters' while it has one.  This speculation failure under
        # load is the pipeline-stall contention cost the paper charges
        # the generic design with.
        tally = [0] * len(GENERIC_PORTS)
        ready = self._ready_walk(occupied, cycle, tally)
        self._add_contention(tally)
        if not ready:
            return
        self._activity.sa_requests += len(ready)
        vc_lines = self._vc_lines
        #: input port -> [request lines, whether they are speculative]
        stage1: dict[Direction, list] = {}
        for vc in ready:
            speculative = vc in newly_allocated
            d = vc.input_dir
            entry = stage1.get(d)
            if entry is None or (entry[1] and not speculative):
                stage1[d] = [vc_lines[vc.index], speculative]
            elif entry[1] is speculative:
                lines = entry[0]
                if type(lines) is tuple:
                    lines = entry[0] = list(lines)
                lines[vc.index] = True

        # SA stage 1 nominates one VC per requesting input port; each
        # nominee raises its port's line at its output's stage-2 request
        # by the same speculation rule.  Outputs are served in the order
        # their first nominee appears (port order): grant order is the
        # next cycle's launch order.
        ports = self.ports
        stage1_arbiters = self._sa_stage1
        nominees: dict[Direction, VirtualChannel] = {}
        #: output -> [request lines, whether they are speculative]
        stage2: dict[Direction, list] = {}
        for d, (lines, speculative) in stage1.items():
            vc = ports[d][stage1_arbiters[d].grant(lines)]
            nominees[d] = vc
            out_dir = vc.out_dir
            entry = stage2.get(out_dir)
            if entry is None or (entry[1] and not speculative):
                stage2[out_dir] = [_PORT_LINES[d], speculative]
            elif entry[1] is speculative:
                lines = entry[0]
                if type(lines) is tuple:
                    lines = entry[0] = list(lines)
                lines[d] = True
        stage2_arbiters = self._sa_stage2
        for out_dir, (lines, _) in stage2.items():
            winner = stage2_arbiters[out_dir].grant(lines)
            self._commit_switch_grant(nominees[GENERIC_PORTS[winner]], cycle)

    def _allocate_lone(self, vc: VirtualChannel, cycle: int) -> None:
        """:meth:`allocate` of a step that finds only ``vc`` occupied.

        The general body with each container cut to its one entry: the
        VC, if ready, is the sole request of both SA stages and wins
        them, but each stage's arbiter is still called — one raised line
        — so its rotating priority moves past the winner as in the
        general walk.  The full sweep never comes here: it is the
        reference the lone path is checked against.
        """
        self._stage_lone(vc, cycle)
        self._tally_lone(vc)
        if not self._vc_ready_for_switch(vc, cycle):
            return
        self._activity.sa_requests += 1
        d = vc.input_dir
        self._sa_stage1[d].grant(self._vc_lines[vc.index])
        self._sa_stage2[vc.out_dir].grant(_PORT_LINES[d])
        self._commit_switch_grant(vc, cycle)

    def _request_va(
        self, vc: VirtualChannel, cycle: int, va_requests: list
    ) -> None:
        """Route computation: the minimal candidates (a worm in the
        adaptive escape VC takes the XY direction), most free credits
        first."""
        if vc.verdict is not None and self._blocked_again(vc, cycle):
            return
        packet = vc.queue[0].packet
        if vc.escape and self.routing.mode is ADAPTIVE:
            candidates = (self.routing.escape_direction(self.node, packet),)
        else:
            candidates = self.routing.candidates(self.node, packet)
        routes = self._order_by_congestion(candidates, cycle)
        self._request_routes(vc, routes, cycle, va_requests)

    def _order_by_congestion(
        self, candidates: tuple[Direction, ...], cycle: int
    ) -> tuple[Direction, ...]:
        """Adaptive selection: prefer the output with the most free credits."""
        if len(candidates) <= 1:
            return candidates
        live = [d for d in candidates if self._output_alive(d)]
        if not live:
            return candidates
        return tuple(sorted(live, key=lambda d: -self._free_credits(d, cycle)))

    def _free_credits(self, d: Direction, cycle: int) -> int:
        port = self.outputs.get(d)
        if port is None:
            return 0
        vcs = port.downstream.ports[port.input_dir]  # type: ignore[attr-defined]
        return sum(vc.credits(cycle) for vc in vcs)
