"""The struct-of-arrays fast backend (``backend="soa"``).

A transliteration of the object-model hot loop (Simulator / Network /
routers / arbiters) onto flat integer state: one *slot* per virtual
channel (see :mod:`repro.core.soa.layout`), flits identified as
``fid = pid * flits_per_packet + seq``, directions as their ``Direction``
int values, and the EJECT pseudo-target as :data:`EJECT_CODE`.  All
structural decisions (admission candidate order, injection scan order,
route candidates) come from layout tables built by introspecting a real
object-model network, so the kernels only replicate the *dynamic* logic:
credit bookkeeping, the VC/switch allocators, and link advancement.

The contract is bit-identity with the object backend on the supported
envelope (see :func:`repro.core.soa.errors.ensure_supported`), pinned by
the ``soa`` rows of tests/test_engines_agree.py.  Every loop below
mirrors a specific reference code path, including its quirks — the
one-cycle-stale credit view of ``injection_vc_for``, the discarded
re-requests of final-round VA losers (which still bump
``va_requests``), and the contention tally that walks *all* of a
router's VCs once per allocator invocation.

Speed comes from what is *not* here: no per-flit objects, no per-call
candidate list construction, no dict-keyed port lookups, no trace hooks
— plus activity-driven scheduling identical to the object scheduler's.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import compress

from repro.core.config import SimulationConfig
from repro.core.runloop import drive
from repro.core.soa.errors import ensure_supported
from repro.core.soa.layout import EJECT_CODE, LOCAL, NONE_CODE, build_layout
from repro.core.statistics import (
    ActivityCounters,
    ContentionCounters,
    SchedulerCounters,
    StatsCollector,
)
from repro.core.types import ADAPTIVE, XY_YX, DropReason
from repro.routing.xyyx import choose_variant
from repro.traffic import TrafficPattern, make_traffic
from repro.core.simulator import SimulationResult, StrandedCensus


def _rr(state: list[int], idx: int, requests) -> int | None:
    """One round-robin grant on arbiter ``idx`` of an int-state vector.

    Mirrors :class:`repro.arbiters.round_robin.RoundRobinArbiter.grant`:
    scan from the stored priority pointer, grant the first requester,
    advance the pointer past the winner.
    """
    n = len(requests)
    i = state[idx]
    for _ in range(n):
        if i >= n:
            i -= n
        if requests[i]:
            state[idx] = i + 1 if i + 1 < n else 0
            return i
        i += 1
    return None


def _sequential_allocate(state: list[int], requests) -> list[tuple[int, int, int]]:
    """SequentialAllocator.allocate (mirror-ablation) on int state.

    ``state`` is ``[port0, port1, dir0, dir1]``.
    """
    num_vcs = len(requests[0][0])
    nominees: list[tuple[int, int] | None] = [None, None]
    for port in range(2):
        flat = [requests[port][0][v] or requests[port][1][v] for v in range(num_vcs)]
        if not any(flat):
            continue
        vc = _rr(state, port, flat)
        slot = 0 if requests[port][0][vc] else 1
        nominees[port] = (slot, vc)
    grants: list[tuple[int, int, int]] = []
    for slot in range(2):
        lines = [
            nominees[port] is not None and nominees[port][0] == slot
            for port in range(2)
        ]
        if not any(lines):
            continue
        port = _rr(state, 2 + slot, lines)
        grants.append((port, slot, nominees[port][1]))
    return grants


class SoASimulator:
    """One end-to-end run on the struct-of-arrays backend.

    Drop-in equivalent of :class:`repro.core.simulator.Simulator` for
    the supported envelope; :meth:`run` returns the same
    :class:`SimulationResult`.
    """

    def __init__(
        self,
        config: SimulationConfig,
        faults=None,
        *,
        schedule=None,
        full_sweep: bool = False,
    ) -> None:
        ensure_supported(config, faults=faults, schedule=schedule)
        self.config = config
        self.layout = build_layout(config)
        self.full_sweep = full_sweep
        self.rng = random.Random(config.seed)
        self.traffic = make_traffic(config.traffic)
        self.traffic.bind(config, self.rng, self.layout.nodes)
        #: True when the pattern inherits the base Bernoulli ``arrivals``
        #: verbatim — lets _generate inline the draw.
        self._bernoulli = type(self.traffic).arrivals is TrafficPattern.arrivals
        self.faults: list = []
        lay = self.layout
        self.N = lay.N
        self.S = lay.S
        self.F = lay.F
        self.V = lay.vcs_per_port
        depth = config.router_config.buffer_depth

        # -- per-slot (VC) state -----------------------------------------
        S = self.S
        self.q: list[list[int]] = [[] for _ in range(S)]
        self.out_dir = [NONE_CODE] * S
        self.out_vc = [NONE_CODE] * S
        self.apid = [NONE_CODE] * S  # active_pid
        self.owner = [NONE_CODE] * S  # owner_pid
        self.expected = [0] * S
        self.avail = [depth] * S
        self.rel: list[list[int]] = [[] for _ in range(S)]

        # -- per-router state ---------------------------------------------
        N = self.N
        self.r_active = [False] * N
        self.sa_win: list[list[tuple[int, int, int]]] = [[] for _ in range(N)]
        #: Routers with pending SA winners, in ascending (row-major)
        #: order — appended on a router's first grant of the cycle
        #: (allocate runs in ascending order), drained by the traversal
        #: phase.  Lets phase 2 skip the full router scan.
        self.sa_routers: list[int] = []
        #: RoCo's O(1) quiescence snapshot (``_alloc_occupied``).
        self.r_occupied = [False] * N
        #: Per-router occupancy bitmask over the allocate-phase walk
        #: order: bit i of ``occ_mask[n]`` is set iff the queue of
        #: ``bit_slot[n][i]`` is non-empty.  Because bits are assigned in
        #: walk order, iterating set bits ascending IS the reference VA
        #: walk restricted to occupied VCs — and skipping empty VCs is
        #: observably a no-op on every reference path (including
        #: full-sweep, whose unconditional loops only ``continue`` on
        #: them).  Maintained at the four queue-mutation sites: link
        #: delivery and switch traversal (both inlined in _net_step),
        #: _inject, and the defensive RoCo eject.
        self.occ_mask = [0] * N
        #: The layout's walk-order tables (shared by every run of a shape).
        self.bit_slot = lay.bit_slot
        self.slot_bitmask = lay.slot_bitmask
        if lay.arch == "generic":
            # [sa1 x5 | sa2 x5] round-robin pointers per router.
            self.arb = [[0] * 10 for _ in range(N)]
        else:
            # Two modules x (5 mirror pointers or 4 sequential pointers).
            width = 5 if lay.mirror else 4
            self.arb = [[[0] * width, [0] * width] for _ in range(N)]
            #: Bits of one module's slots within ``occ_mask`` (module mi
            #: occupies bits ``mi*2V .. mi*2V+2V-1``).
            self._mod_bits = 2 * self.V
            self._mod_mask = (1 << self._mod_bits) - 1
        self._va_iterations = 2 if lay.arch == "roco" else 1
        self._generic = lay.arch == "generic"

        # -- link / wake state (shared: the wake bucket IS the link) ------
        #: landing cycle -> {receiver_node: [(input_dir, fid), ...]}, each
        #: list in launch order.
        self.wake: dict[int, dict[int, list[tuple[int, int]]]] = {}

        # -- per-source state ---------------------------------------------
        self.s_queue: list[list[int]] = [[] for _ in range(N)]
        #: fid of the next flit of the worm being streamed, or -1.
        self.s_cur = [NONE_CODE] * N
        self.s_vc = [NONE_CODE] * N
        #: Sources with work (queue non-empty or a worm streaming) — the
        #: run loop's inject scan visits only these.  ``Source.inject``
        #: is a strict no-op (no rng, no state) for an idle source.
        self.src_busy: set[int] = set()

        # -- per-packet / per-flit arrays ----------------------------------
        self.p_src: list[int] = []
        self.p_dest: list[int] = []
        self.p_created: list[int] = []
        self.p_injected: list[int] = []
        self.p_delivered: list[int] = []
        self.p_dropped: list[int] = []
        self.p_yx: list[int] = []
        self.p_fdel: list[int] = []
        self.p_hops: list[int] = []
        self.p_meas: list[bool] = []
        self.f_route: list[int] = []
        self.f_look: list[int] = []
        self.f_hint: list[int] = []
        self.f_arrival: list[int] = []

        # -- run accounting (flushed into a StatsCollector at the end) ----
        self.generated = 0
        self.outstanding = 0
        self.net_cycle = 0  # Network.cycle: set at step time, stale during injection
        self._measuring = False
        self._measure_start: int | None = None
        self.latencies: list[int] = []
        self.hops_list: list[int] = []
        self.injected_packets = 0
        self.delivered_packets = 0
        self.dropped_packets = 0
        self.delivered_flits = 0
        self.total_delivered = 0
        self.total_dropped = 0
        self.drops_by_reason: dict[DropReason, int] = {}
        self.measured_cycles = 0
        # ActivityCounters fields, as locals-friendly ints.
        self.bw = 0  # buffer_writes
        self.br = 0  # buffer_reads
        self.xb = 0  # crossbar_traversals
        self.va = 0  # va_requests
        self.sa = 0  # sa_requests
        self.lf = 0  # link_flits
        self.ee = 0  # early_ejections
        # ContentionCounters fields.
        self.row_req = 0
        self.row_cont = 0
        self.col_req = 0
        self.col_cont = 0
        # SchedulerCounters fields.
        self.sched_cycles = 0
        self.sched_steps = 0
        self.sched_slots = 0
        self.sched_wakeups = 0
        self.sched_sleeps = 0

    # The allocate kernels are looked up per cycle, not stored: a bound
    # method held by its own instance is a reference cycle, which would
    # leave every finished run to the cyclic garbage collector.

    @property
    def _allocate(self):
        """The general allocate block of this architecture."""
        return self._allocate_generic if self._generic else self._allocate_roco

    @property
    def _allocate_lone(self):
        """What a router with exactly one occupied VC runs instead; the
        sequential-allocator ablation keeps RoCo's general block."""
        if self._generic:
            return self._allocate_generic_lone
        return self._allocate_roco_lone if self.layout.mirror else self._allocate_roco

    # ------------------------------------------------------------------
    # Credits / scheduling primitives
    # ------------------------------------------------------------------

    def _credits(self, s: int, cycle: int) -> int:
        """``VirtualChannel.credits``: lazily mature pending releases."""
        rel = self.rel[s]
        if rel and rel[0] <= cycle:
            avail = self.avail[s]
            while rel and rel[0] <= cycle:
                del rel[0]
                avail += 1
            self.avail[s] = avail
        return self.avail[s]

    # ------------------------------------------------------------------
    # Generation and injection (Simulator._generate / Source.inject)
    # ------------------------------------------------------------------

    def _generate(self, cycle: int) -> None:
        total = self.config.total_packets
        s_queue = self.s_queue
        nodes = self.layout.nodes
        if self._bernoulli:
            # The pattern uses the base-class Bernoulli arrivals: one
            # rng.random() per node per cycle against a constant rate —
            # inlined with the identical draw sequence.
            rnd = self.rng.random
            rate = self.traffic.packet_rate
            for n in range(self.N):
                if self.generated >= total:
                    return
                if rnd() < rate:
                    s_queue[n].append(self._create_packet(n, nodes[n], cycle))
                    self.src_busy.add(n)
            return
        arrivals = self.traffic.arrivals
        for n, node in enumerate(nodes):
            if self.generated >= total:
                return
            for _ in range(arrivals(node, cycle)):
                s_queue[n].append(self._create_packet(n, node, cycle))
                self.src_busy.add(n)
                if self.generated >= total:
                    return

    def _create_packet(self, n: int, node, cycle: int) -> int:
        dest_node = self.traffic.destination(node)
        if self.generated == self.config.warmup_packets:
            self._measuring = True
            self._measure_start = cycle
        pid = self.generated
        self.generated += 1
        self.outstanding += 1
        self.p_src.append(n)
        self.p_dest.append(self.layout.node_index[dest_node])
        self.p_created.append(cycle)
        self.p_injected.append(NONE_CODE)
        self.p_delivered.append(NONE_CODE)
        self.p_dropped.append(NONE_CODE)
        self.p_fdel.append(0)
        self.p_hops.append(0)
        measured = self._measuring
        if measured:
            self.injected_packets += 1
        self.p_meas.append(measured)
        yx = False
        if self.config.routing is XY_YX:
            yx = choose_variant(node, dest_node, self.rng, None)
        self.p_yx.append(1 if yx else 0)
        F = self.F
        none_row = [NONE_CODE] * F
        self.f_route.extend(none_row)
        self.f_look.extend(none_row)
        self.f_hint.extend(none_row)
        self.f_arrival.extend(none_row)
        return pid

    def _inject(self, n: int, cycle: int) -> None:
        """``Source.inject``: advance injection by at most one flit."""
        if self.s_cur[n] == NONE_CODE and self.s_queue[n]:
            self._start_next(n, cycle)
        fid = self.s_cur[n]
        if fid == NONE_CODE:
            return
        s = self.s_vc[n]
        if self._credits(s, cycle) <= 0:
            return
        self.avail[s] -= 1  # reserve_slot (already refreshed by _credits)
        self.q[s].append(fid)
        self.occ_mask[n] |= self.slot_bitmask[s]
        if not self.r_active[n]:
            # BaseRouter.wake: join the active set, count the wakeup.
            self.r_active[n] = True
            self.sched_wakeups += 1
        self.f_arrival[fid] = cycle
        F = self.F
        pid, seq = divmod(fid, F)
        if seq == 0:
            self.apid[s] = pid
        self.bw += 1
        if seq == F - 1:
            # Tail pushed: release the VC for the next worm.
            self.owner[s] = NONE_CODE
            self.s_cur[n] = NONE_CODE
            self.s_vc[n] = NONE_CODE
            if not self.s_queue[n]:
                self.src_busy.discard(n)
        else:
            self.s_cur[n] = fid + 1

    def _start_next(self, n: int, cycle: int) -> None:
        """``Source._start_next_packet``: claim an injection VC.

        Reference quirk preserved: ``injectable``/``credits`` here read
        ``Network.cycle``, which is still the *previous* cycle's value
        during the injection phase (the network only advances its clock
        inside ``step``) — so the admission view is one cycle stale
        while the streaming credit check above is current.
        """
        pid = self.s_queue[n][0]
        stale = self.net_cycle
        lay = self.layout
        if lay.arch == "generic":
            admission = None
            for s in lay.gen_port_slots[n][4]:
                if (
                    self.owner[s] == NONE_CODE
                    and self.expected[s] == 0
                    and self._credits(s, stale) > 0
                ):
                    admission = (s, NONE_CODE)
                    break
        else:
            admission = None
            best_credits = -1
            base = n * lay.R
            for i, route in lay.injection[
                lay.class_of(n, self.p_dest[pid]) * 2 + self.p_yx[pid]
            ]:
                s = base + i
                if (
                    self.owner[s] == NONE_CODE
                    and self.expected[s] == 0
                    and self._credits(s, stale) > 0
                ):
                    credit = self._credits(s, stale)
                    if credit > best_credits:
                        admission, best_credits = (s, route), credit
        if admission is None:
            return
        s, route = admission
        self.owner[s] = pid
        del self.s_queue[n][0]
        self.p_injected[pid] = cycle
        head = pid * self.F
        self.f_route[head] = route
        self.s_cur[n] = head
        self.s_vc[n] = s

    # ------------------------------------------------------------------
    # Network step (Network.step)
    # ------------------------------------------------------------------

    def _net_step(self, cycle: int) -> None:
        self.net_cycle = cycle
        full = self.full_sweep
        due = self.wake.pop(cycle, None)
        if full:
            stepped = range(self.N)
            num_stepped = self.N
        else:
            r_active = self.r_active
            if due:
                # Network.deliver_due's wake of every receiver.
                woken = 0
                for n in due:
                    if not r_active[n]:
                        r_active[n] = True
                        woken += 1
                self.sched_wakeups += woken
            stepped = list(compress(range(self.N), r_active))
            num_stepped = len(stepped)
        self.sched_cycles += 1
        self.sched_steps += num_stepped
        self.sched_slots += self.N

        # Phase 1: link delivery, routers in row-major order, links in
        # CARDINALS order within a router (deliver_due sorts its dirs).
        # Every router with arrivals is in the stepped set — it was
        # woken above (active) or stepped unconditionally (full sweep) —
        # so iterating the bucket's receivers in node order IS the
        # reference walk restricted to routers that actually receive a
        # flit.
        # (``BaseRouter._accept_flit``, inlined for the hot path.)
        if due:
            F = self.F
            q = self.q
            occ = self.occ_mask
            sbm = self.slot_bitmask
            f_hint = self.f_hint
            f_route = self.f_route
            f_look = self.f_look
            f_arrival = self.f_arrival
            expected = self.expected
            apid = self.apid
            bw = 0
            for n in sorted(due):
                arrivals = due[n]
                if len(arrivals) > 1:
                    arrivals.sort()
                for _din, fid in arrivals:
                    t = f_hint[fid]
                    f_route[fid] = f_look[fid]
                    f_look[fid] = NONE_CODE
                    if t == EJECT_CODE:
                        self._eject(n, fid, cycle, early=True)
                        continue
                    q[t].append(fid)
                    occ[n] |= sbm[t]
                    expected[t] -= 1
                    f_arrival[fid] = cycle
                    if fid % F == 0:
                        apid[t] = fid // F
                    bw += 1
            self.bw += bw

        # Phase 2: switch traversal of last cycle's SA winners — only
        # routers on the sa_routers list have any, and the sleep pass
        # never deactivates a router with pending winners, so the list
        # (ascending by construction) is the reference walk's non-empty
        # subsequence.  (``BaseRouter._launch``, inlined; the stale
        # check guarantees ``t == out_vc[s]``.)
        if self.sa_routers:
            routers = self.sa_routers
            self.sa_routers = []
            sa_win = self.sa_win
            q = self.q
            occ = self.occ_mask
            sbm = self.slot_bitmask
            out_dir = self.out_dir
            out_vc = self.out_vc
            avail = self.avail
            expected = self.expected
            apid = self.apid
            owner = self.owner
            rel = self.rel
            f_hint = self.f_hint
            p_hops = self.p_hops
            nbr = self.layout.nbr
            wake = self.wake
            F = self.F
            release_at = cycle + 2
            out_bucket = wake.get(release_at)
            if out_bucket is None:
                out_bucket = wake[release_at] = defaultdict(list)
            moved = links = 0
            for n in routers:
                winners = sa_win[n]
                sa_win[n] = []
                for s, od, t in winners:
                    qs = q[s]
                    if not qs or out_dir[s] != od or out_vc[s] != t:
                        # Stale grant (purged worm): refund the reservation.
                        if t >= 0:
                            avail[t] += 1
                            expected[t] -= 1
                        continue
                    fid = qs.pop(0)
                    if not qs:
                        occ[n] &= ~sbm[s]
                    rel[s].append(release_at)  # pop(): schedule_release
                    closes = fid % F == F - 1
                    if closes:
                        out_dir[s] = NONE_CODE
                        out_vc[s] = NONE_CODE
                        apid[s] = NONE_CODE
                    moved += 1
                    if od == LOCAL:
                        self._eject(n, fid, cycle, early=False)
                        continue
                    f_hint[fid] = t
                    if fid % F == 0:
                        p_hops[fid // F] += 1
                    out_bucket[nbr[n][od]].append(((od + 2) % 4, fid))
                    links += 1
                    if closes and t >= 0:
                        owner[t] = NONE_CODE
            self.br += moved
            self.xb += moved
            self.lf += links

        # Phase 3: allocation (RC + VA + SA), per architecture.  The
        # allocators' empty-router work is a pure no-op in both modes,
        # so the mask gates the call itself; RoCo's quiescence snapshot
        # (``_alloc_occupied``, taken at allocate entry) lands here.
        # A mask of one bit — a router holding flits in a single VC, most
        # calls at low load — selects the lone kernel.
        #
        # The active scheduler's sleep pass rides along: a stepped router
        # sleeps iff it has no SA winners and is not busy — RoCo judging
        # by the allocate-entry snapshot, the generic router re-probing
        # its queues.  Traversal drained every winner list and only a
        # router's own allocate refills it, and a generic allocate never
        # empties a queue, so that is exactly the routers found empty
        # here.
        occ = self.occ_mask
        allocate = self._allocate
        lone = self._allocate_lone
        if full:
            for n in stepped:
                mask = occ[n]
                if mask:
                    (allocate if mask & (mask - 1) else lone)(n, cycle)
        else:
            sleeps = 0
            if self._generic:
                for n in stepped:
                    mask = occ[n]
                    if mask:
                        (allocate if mask & (mask - 1) else lone)(n, cycle)
                    else:
                        r_active[n] = False
                        sleeps += 1
            else:
                r_occupied = self.r_occupied
                for n in stepped:
                    mask = occ[n]
                    if mask:
                        r_occupied[n] = True
                        (allocate if mask & (mask - 1) else lone)(n, cycle)
                    else:
                        r_occupied[n] = False
                        r_active[n] = False
                        sleeps += 1
            self.sched_sleeps += sleeps

        # StatsCollector.tick()
        if self._measuring:
            self.measured_cycles += 1

    # ------------------------------------------------------------------
    # Flit movement (accept / launch / eject)
    # ------------------------------------------------------------------

    def _eject(self, n: int, fid: int, cycle: int, early: bool) -> None:
        """``Network.eject``: consume a flit at its destination PE."""
        pid = fid // self.F
        if self.p_dropped[pid] != NONE_CODE:
            return
        if early:
            self.ee += 1
        self.p_fdel[pid] += 1
        measured = self.p_meas[pid]
        if measured:
            self.delivered_flits += 1
        if fid % self.F == self.F - 1:
            self.p_delivered[pid] = cycle
            self.total_delivered += 1
            if measured:
                self.delivered_packets += 1
                self.latencies.append(cycle - self.p_created[pid])
                self.hops_list.append(self.p_hops[pid])
            self.outstanding -= 1

    # ------------------------------------------------------------------
    # VC allocation (BaseRouter._request_vc_allocation / _resolve_*)
    # ------------------------------------------------------------------

    def _request_vc_alloc(
        self, n: int, s: int, od: int, fid: int, requests: list, cycle: int
    ):
        """Returns True (staged/granted), False (all owned), None (hard)."""
        self.va += 1
        if od == LOCAL:
            self.out_vc[s] = EJECT_CODE
            self.out_dir[s] = LOCAL
            return True
        lay = self.layout
        m = lay.nbr[n][od]
        if m < 0:
            return None
        din = (od + 2) % 4
        if self._generic:
            candidates = lay.gen_adm[m][din]
            base = 0
        else:
            pid = fid // self.F
            candidates = lay.admission[
                (lay.class_of(m, self.p_dest[pid]) * 4 + din) * 2 + self.p_yx[pid]
            ]
            base = m * lay.R
        if not candidates:
            return None
        # Targets already requested this cycle; usually none.
        staged = {req[3] for req in requests} if requests else ()
        owner = self.owner
        best_t = None
        best_route = NONE_CODE
        best_key = -1
        for t, route in candidates:
            if t == EJECT_CODE:
                best_t, best_route = t, route
                break
            t += base
            if owner[t] != NONE_CODE:
                continue
            # (un-contested, credits) as one int: credits are 0..depth.
            key = self._credits(t, cycle) + (0 if t in staged else 1 << 16)
            if key > best_key:
                best_t, best_route, best_key = t, route, key
        if best_t is None:
            return False
        if best_t == EJECT_CODE:
            self.out_vc[s] = EJECT_CODE
            self.out_dir[s] = od
            self.f_look[fid] = best_route
            return True
        requests.append((s, od, fid, best_t, best_route))
        return True

    def _resolve_vc_allocations(self, n: int, requests: list, cycle: int) -> None:
        F = self.F
        if len(requests) == 1:
            # A lone request wins its group and leaves no loser.
            s, od, fid, t, route = requests[0]
            self.owner[t] = fid // F  # claim()
            self.out_vc[s] = t
            self.out_dir[s] = od
            self.f_look[fid] = route
            return
        for _ in range(self._va_iterations):
            if not requests:
                return
            groups: dict[int, list] = {}
            for req in requests:
                groups.setdefault(req[3], []).append(req)
            losers: list[tuple[int, int, int]] = []
            for group in groups.values():
                pick = cycle % len(group)
                for i, (s, od, fid, t, route) in enumerate(group):
                    if i == pick:
                        self.owner[t] = fid // F  # claim()
                        self.out_vc[s] = t
                        self.out_dir[s] = od
                        self.f_look[fid] = route
                    else:
                        losers.append((s, od, fid))
            requests = []
            for s, od, fid in losers:
                # Final-iteration losers re-request into a discarded
                # list — observable only as va_requests bumps, exactly
                # like the reference.
                self._request_vc_alloc(n, s, od, fid, requests, cycle)

    def _commit(self, n: int, s: int, cycle: int) -> None:
        """``BaseRouter._commit_switch_grant``."""
        t = self.out_vc[s]
        if t >= 0:
            self._credits(t, cycle)  # reserve_slot refreshes first
            self.avail[t] -= 1
            self.expected[t] += 1
        win = self.sa_win[n]
        if not win:
            self.sa_routers.append(n)
        win.append((s, self.out_dir[s], t))

    # ------------------------------------------------------------------
    # Generic-router allocate (GenericRouter.allocate)
    # ------------------------------------------------------------------

    def _allocate_generic(self, n: int, cycle: int) -> None:
        # Caller guarantees occ_mask[n] != 0 (the empty-router walk is a
        # pure no-op in both scheduler modes).
        #
        # One walk runs RC + VA for unallocated heads and books every VC
        # that holds an output VC: the contention tally (every buffered
        # worm with a committed cardinal output is a standing request on
        # it, Figure 3; out_dir is set and cleared with out_vc) and
        # switch readiness.  ``tally`` packs a byte-wide count per
        # direction (LOCAL lands in byte 4, never read); ``ready`` and
        # ``newly`` (the VCs whose VA ran this cycle: speculative SA
        # requesters) are masks over the occ_mask bit positions.  Booking
        # a VC during the walk sees what booking after VA would: VA
        # writes only its requester's output fields and the downstream
        # owners, and a credit refresh is idempotent within a cycle.
        F = self.F
        q = self.q
        out_vc = self.out_vc
        out_dir = self.out_dir
        apid = self.apid
        f_arrival = self.f_arrival
        avail = self.avail
        rel = self.rel
        bit_slot = self.bit_slot[n]
        va_requests: list = []
        newly = tally = ready = 0
        m = self.occ_mask[n]
        while m:
            b = m & -m
            m ^= b
            s = bit_slot[b.bit_length() - 1]
            t = out_vc[s]
            fid = q[s][0]
            if not fid % F:
                if apid[s] == NONE_CODE:
                    apid[s] = fid // F
                if t == NONE_CODE:
                    if f_arrival[fid] >= cycle:
                        continue  # post-arrival RC cycle
                    # GenericRouter._request_va (BaseRouter._request_routes):
                    # the first output that VA grants or stages ends the
                    # search.
                    for od in self._gen_routes(n, s, fid // F, cycle):
                        if self._request_vc_alloc(n, s, od, fid, va_requests, cycle):
                            break
                    newly |= b
                    t = out_vc[s]
                    if t == NONE_CODE:
                        continue  # staged (booked below) or blocked
            elif t == NONE_CODE:
                continue
            tally += 1 << (out_dir[s] << 3)
            if t >= 0:
                # Inlined credits(cycle) > 0 with lazy release refresh.
                r = rel[t]
                if r and r[0] <= cycle:
                    a = avail[t]
                    while r and r[0] <= cycle:
                        del r[0]
                        a += 1
                    avail[t] = a
                if avail[t] <= 0:
                    continue
            ready |= b
        if va_requests:
            self._resolve_vc_allocations(n, va_requests, cycle)
            # The staged requesters, booked once VA has settled them.
            sbm = self.slot_bitmask
            for req in va_requests:
                s = req[0]
                t = out_vc[s]
                if t == NONE_CODE:
                    continue  # lost VA
                tally += 1 << (out_dir[s] << 3)
                r = rel[t]
                if r and r[0] <= cycle:
                    a = avail[t]
                    while r and r[0] <= cycle:
                        del r[0]
                        a += 1
                    avail[t] = a
                if avail[t] > 0:
                    ready |= sbm[s]
        ce = tally >> 8 & 255
        cw = tally >> 24 & 255
        if ce or cw:
            self.row_req += ce + cw
            self.row_cont += (ce if ce > 1 else 0) + (cw if cw > 1 else 0)
        cn = tally & 255
        cs = tally >> 16 & 255
        if cn or cs:
            self.col_req += cn + cs
            self.col_cont += (cn if cn > 1 else 0) + (cs if cs > 1 else 0)
        if not ready:
            return
        self.sa += ready.bit_count()

        # A ready VC means at least one grant: commits below are
        # ``_commit_switch_grant`` inlined, whose credit refresh already
        # ran when the VC was booked.
        V = self.V
        arb = self.arb[n]
        expected = self.expected
        win = self.sa_win[n]
        if not win:
            self.sa_routers.append(n)
        if not ready & (ready - 1):
            # A lone requester wins both stages; each arbiter moves past it.
            i = ready.bit_length() - 1
            d = i // V
            arb[d] = (i + 1) % V
            s = bit_slot[i]
            od = out_dir[s]
            arb[5 + od] = (d + 1) % 5
            t = out_vc[s]
            if t >= 0:
                avail[t] -= 1
                expected[t] += 1
            win.append((s, od, t))
            return

        # SA stage 1: each input port nominates one ready VC by a
        # round-robin scan (shift to the stored pointer, lowest set bit)
        # over its non-speculative requesters — worms whose VA did not
        # run this cycle, the Peh-Dally rule — else over all of them.
        pmask = (1 << V) - 1
        settled = ready & ~newly
        nominees = 0  # one bit per nominating port, occ_mask positions
        non_spec = 0  # ports whose nominee is non-speculative
        lines = 0  # byte ``od``: the ports nominating output ``od``
        rest = ready
        while rest:
            # The next port with a ready VC, in port order.
            d = ((rest & -rest).bit_length() - 1) // V
            base = d * V
            rest &= ~(pmask << base)
            pool = settled >> base & pmask
            if pool:
                non_spec |= 1 << d
            else:
                pool = ready >> base & pmask
            p = arb[d]
            high = pool >> p
            i = p + (high & -high).bit_length() if high else (pool & -pool).bit_length()
            arb[d] = i if i < V else 0
            nominees |= 1 << (base + i - 1)
            lines |= 1 << ((out_dir[bit_slot[base + i - 1]] << 3) + d)

        # SA stage 2: each requested output arbitrates among its ports
        # the same way, non-speculative first.  Walking the nominees in
        # port order serves outputs as their first nominee appears.
        rest = nominees
        while rest:
            b = rest & -rest
            rest ^= b
            od = out_dir[bit_slot[b.bit_length() - 1]]
            pool = lines >> (od << 3) & 31
            if not pool:
                continue  # served on an earlier nominee
            lines ^= pool << (od << 3)
            pool = pool & non_spec or pool
            p = arb[5 + od]
            high = pool >> p
            i = p + (high & -high).bit_length() if high else (pool & -pool).bit_length()
            arb[5 + od] = i if i < 5 else 0
            base = (i - 1) * V
            s = bit_slot[base + (nominees >> base & pmask).bit_length() - 1]
            t = out_vc[s]
            if t >= 0:
                avail[t] -= 1
                expected[t] += 1
            win.append((s, od, t))

    def _allocate_generic_lone(self, n: int, cycle: int) -> None:
        """``_allocate_generic`` for a router holding flits in exactly one VC.

        What the general block does with one bit of ``occ_mask[n]`` set:
        VA for an unallocated head (its request is the router's only
        one, so it wins its group and is claimed on the spot), one
        uncontended contention count on its output, booked before the
        credit test, then — with a credit free — the two SA pointer
        moves of a lone requester and the commit
        (tests/test_soa_arbitration.py holds the two blocks equal on
        every single-VC state).
        """
        bit = self.occ_mask[n].bit_length() - 1
        s = self.bit_slot[n][bit]
        out_vc = self.out_vc
        out_dir = self.out_dir
        F = self.F
        fid = self.q[s][0]
        if not fid % F:
            pid = fid // F
            if self.apid[s] == NONE_CODE:
                self.apid[s] = pid
            if out_vc[s] == NONE_CODE:
                if self.f_arrival[fid] >= cycle:
                    return  # post-arrival RC cycle
                # GenericRouter._request_va + _request_vc_alloc, inlined.
                lay = self.layout
                candidates = self._gen_routes(n, s, pid, cycle)
                nbr = lay.nbr[n]
                owner = self.owner
                for od in candidates:
                    self.va += 1
                    if od == LOCAL:
                        out_vc[s] = EJECT_CODE
                        out_dir[s] = LOCAL
                        break
                    m = nbr[od]
                    if m < 0:
                        continue
                    # Most credits among the unowned VCs, first on a tie.
                    best_t = NONE_CODE
                    best = -1
                    for t in lay.gen_port_slots[m][(od + 2) % 4]:
                        if owner[t] == NONE_CODE:
                            credits = self._credits(t, cycle)
                            if credits > best:
                                best_t, best = t, credits
                    if best_t != NONE_CODE:
                        owner[best_t] = pid  # claim()
                        out_vc[s] = best_t
                        out_dir[s] = od
                        self.f_look[fid] = NONE_CODE
                        break
        t = out_vc[s]
        if t == NONE_CODE:
            return
        # _tally_contention over one buffered worm: one request on its
        # output, contended by nobody.
        od = out_dir[s]
        if od & 1:
            self.row_req += 1
        elif od != LOCAL:
            self.col_req += 1
        if t >= 0:
            # Inlined credits(cycle) > 0 with lazy release refresh, then
            # the commit's reserve_slot.
            avail = self.avail
            r = self.rel[t]
            if r and r[0] <= cycle:
                a = avail[t]
                while r and r[0] <= cycle:
                    del r[0]
                    a += 1
                avail[t] = a
            if avail[t] <= 0:
                return
            avail[t] -= 1
            self.expected[t] += 1
        self.sa += 1
        # A lone requester wins both stages; each arbiter moves past it.
        arb = self.arb[n]
        d = bit // self.V
        arb[d] = (bit + 1) % self.V
        arb[5 + od] = (d + 1) % 5
        # ``_commit_switch_grant``
        win = self.sa_win[n]
        if not win:
            self.sa_routers.append(n)
        win.append((s, od, t))

    def _gen_routes(self, n: int, s: int, pid: int, cycle: int) -> tuple:
        """The output directions a head in slot ``s`` tries, in order."""
        lay = self.layout
        dest = self.p_dest[pid]
        cls = lay.class_of(n, dest)
        if lay.slot_escape[s] and lay.mode is ADAPTIVE:
            return lay.escape[cls]
        candidates = lay.routes[cls * 2 + self.p_yx[pid]]
        if len(candidates) > 1:
            # _order_by_congestion: a stable sort by free downstream
            # credits, over the two productive directions of a mesh.
            first, second = candidates
            if self._free_credits(n, first, cycle) < self._free_credits(
                n, second, cycle
            ):
                return (second, first)
        return candidates

    def _free_credits(self, n: int, d: int, cycle: int) -> int:
        total = 0
        for s in self.layout.fc_slots[n][d]:
            total += self._credits(s, cycle)
        return total

    # ------------------------------------------------------------------
    # RoCo allocate (RoCoRouter.allocate)
    # ------------------------------------------------------------------

    def _allocate_roco(self, n: int, cycle: int) -> None:
        # Caller guarantees occ_mask[n] != 0 and has already taken the
        # ``_alloc_occupied`` snapshot (r_occupied) at phase entry —
        # deliberately before the VA walk, whose defensive ejects may
        # empty queues, so quiescence stays conservatively False for
        # one extra cycle exactly like the reference.
        #
        # One walk, as in _allocate_generic: VA for unallocated heads,
        # and the contention tally and readiness of every VC holding an
        # output VC.  A defensive eject only touches its own VC, which
        # holds no output VC, so nothing it changes is booked.  ``dir1``
        # marks the ready VCs bound for their module's crossbar slot 1.
        F = self.F
        q = self.q
        out_vc = self.out_vc
        out_dir = self.out_dir
        apid = self.apid
        f_arrival = self.f_arrival
        f_route = self.f_route
        avail = self.avail
        rel = self.rel
        bit_slot = self.bit_slot[n]
        lookahead = self.layout.lookahead
        row_slot0, col_slot0 = self.layout.mod_slot0_dir
        mod_bits = self._mod_bits
        col_bit = 1 << mod_bits  # the Column-Module's first bit
        va_requests: list = []
        tally = ready = dir1 = 0
        m = self.occ_mask[n]
        while m:
            b = m & -m
            m ^= b
            s = bit_slot[b.bit_length() - 1]
            t = out_vc[s]
            fid = q[s][0]
            if not fid % F:
                if apid[s] == NONE_CODE:
                    apid[s] = fid // F
                if t == NONE_CODE:
                    if not lookahead and f_arrival[fid] >= cycle:
                        continue  # ablation: RC charged post-arrival
                    # RoCoRouter._request_va on the look-ahead route.
                    od = f_route[fid]
                    if od == NONE_CODE or od == LOCAL:
                        self._stray_eject(n, s, fid, cycle)
                        continue
                    self._request_vc_alloc(n, s, od, fid, va_requests, cycle)
                    t = out_vc[s]
                    if t == NONE_CODE:
                        continue  # staged (booked below) or blocked
            elif t == NONE_CODE:
                continue
            od = out_dir[s]
            tally += 1 << (od << 3)
            if t >= 0:
                # Inlined credits(cycle) > 0 with lazy release refresh.
                r = rel[t]
                if r and r[0] <= cycle:
                    a = avail[t]
                    while r and r[0] <= cycle:
                        del r[0]
                        a += 1
                    avail[t] = a
                if avail[t] <= 0:
                    continue
            ready |= b
            if od != (row_slot0 if b < col_bit else col_slot0):
                dir1 |= b
        if va_requests:
            self._resolve_vc_allocations(n, va_requests, cycle)
            # The staged requesters, booked once VA has settled them.
            sbm = self.slot_bitmask
            for req in va_requests:
                s = req[0]
                t = out_vc[s]
                if t == NONE_CODE:
                    continue  # lost VA
                od = out_dir[s]
                tally += 1 << (od << 3)
                r = rel[t]
                if r and r[0] <= cycle:
                    a = avail[t]
                    while r and r[0] <= cycle:
                        del r[0]
                        a += 1
                    avail[t] = a
                if avail[t] > 0:
                    b = sbm[s]
                    ready |= b
                    if od != (row_slot0 if b < col_bit else col_slot0):
                        dir1 |= b
        if not ready:
            return

        V = self.V
        vmask = (1 << V) - 1
        mod_mask = self._mod_mask
        expected = self.expected
        sa_routers = self.sa_routers
        win = self.sa_win[n]
        mirror = self.layout.mirror
        cn = tally & 255
        ce = tally >> 8 & 255
        cs = tally >> 16 & 255
        cw = tally >> 24 & 255
        row_cont = (ce if ce > 1 else 0) + (cw if cw > 1 else 0)
        col_cont = (cn if cn > 1 else 0) + (cs if cs > 1 else 0)
        for mi in (0, 1):
            shift = mi * mod_bits
            sub = ready >> shift & mod_mask
            if not sub:
                continue
            self.sa += sub.bit_count()
            # _tally_contention — the reference invokes it once per
            # module with ready VCs, each walk seeing identical state
            # (the SA loop mutates neither queues nor out_dir), so the
            # counts are computed once and applied per invocation.
            self.row_req += ce + cw
            self.row_cont += row_cont
            self.col_req += cn + cs
            self.col_cont += col_cont
            # Ready requests as four V-wide bitmasks: (port, crossbar
            # direction-slot) with bit ``vc.index`` — the same matrix the
            # allocators consume, packed.
            to1 = dir1 >> shift & mod_mask
            to0 = sub ^ to1
            r00 = to0 & vmask
            r01 = to1 & vmask
            r10 = to0 >> V
            r11 = to1 >> V
            state = self.arb[n][mi]
            if mirror:
                # MirrorAllocator.allocate, inlined on the packed rows.
                # Local v:1 arbiters — each a round-robin scan from the
                # stored pointer over a non-empty request mask.
                if r00:
                    i = state[0]
                    while not r00 >> i & 1:
                        i += 1
                        if i >= V:
                            i = 0
                    state[0] = i + 1 if i + 1 < V else 0
                    l00 = i
                else:
                    l00 = -1
                if r01:
                    i = state[1]
                    while not r01 >> i & 1:
                        i += 1
                        if i >= V:
                            i = 0
                    state[1] = i + 1 if i + 1 < V else 0
                    l01 = i
                else:
                    l01 = -1
                if r10:
                    i = state[2]
                    while not r10 >> i & 1:
                        i += 1
                        if i >= V:
                            i = 0
                    state[2] = i + 1 if i + 1 < V else 0
                    l10 = i
                else:
                    l10 = -1
                if r11:
                    i = state[3]
                    while not r11 >> i & 1:
                        i += 1
                        if i >= V:
                            i = 0
                    state[3] = i + 1 if i + 1 < V else 0
                    l11 = i
                else:
                    l11 = -1
                # Global 2:1 arbiter + mirrored partner grants.  The
                # pointer is always 0/1, so each grant leaves it at
                # 1 - winner (tests/test_soa_arbitration.py spells out
                # the reference transliteration this compresses).
                if l00 >= 0 or l01 >= 0:
                    score0 = (2 if l11 >= 0 else 1) if l00 >= 0 else -1
                    score1 = (2 if l10 >= 0 else 1) if l01 >= 0 else -1
                    if score0 == score1:
                        slot1 = state[4]
                    else:
                        slot1 = 0 if score0 > score1 else 1
                    state[4] = 1 - slot1
                    if slot1 == 0:
                        granted = (
                            (bit_slot[shift + l00], bit_slot[shift + V + l11])
                            if l11 >= 0
                            else (bit_slot[shift + l00],)
                        )
                    elif l10 >= 0:
                        granted = (bit_slot[shift + l01], bit_slot[shift + V + l10])
                    else:
                        granted = (bit_slot[shift + l01],)
                else:
                    g = state[4]
                    slot2 = g if (l10 >= 0 if g == 0 else l11 >= 0) else 1 - g
                    state[4] = 1 - slot2
                    granted = (bit_slot[shift + V + (l10 if slot2 == 0 else l11)],)
                for gs in granted:
                    # ``_commit_switch_grant``, inlined (port-0 grant
                    # first, mirroring the reference's grants order).
                    t = out_vc[gs]
                    if t >= 0:
                        r = rel[t]
                        if r and r[0] <= cycle:
                            a = avail[t]
                            while r and r[0] <= cycle:
                                del r[0]
                                a += 1
                            avail[t] = a
                        avail[t] -= 1
                        expected[t] += 1
                    if not win:
                        sa_routers.append(n)
                    win.append((gs, out_dir[gs], t))
            else:
                requests = [
                    [
                        [bool(r00 >> v & 1) for v in range(V)],
                        [bool(r01 >> v & 1) for v in range(V)],
                    ],
                    [
                        [bool(r10 >> v & 1) for v in range(V)],
                        [bool(r11 >> v & 1) for v in range(V)],
                    ],
                ]
                for port, _slot, index in _sequential_allocate(state, requests):
                    self._commit(n, bit_slot[shift + port * V + index], cycle)

    def _allocate_roco_lone(self, n: int, cycle: int) -> None:
        """``_allocate_roco`` for a router holding flits in exactly one VC.

        What the general block does with one bit of ``occ_mask[n]`` set,
        without its masks and request matrix: VA for a head (its request
        is the router's only one, so it wins its group and is claimed on
        the spot), the ready/credit test, one contention count, the two
        pointer moves of the mirror allocator and the commit
        (tests/test_soa_arbitration.py holds the two blocks equal on
        every single-VC state).
        """
        bit = self.occ_mask[n].bit_length() - 1
        s = self.bit_slot[n][bit]
        out_vc = self.out_vc
        F = self.F
        fid = self.q[s][0]
        if not fid % F:
            pid = fid // F
            if self.apid[s] == NONE_CODE:
                self.apid[s] = pid
            if out_vc[s] == NONE_CODE:
                lay = self.layout
                if not lay.lookahead and self.f_arrival[fid] >= cycle:
                    return  # ablation: RC charged post-arrival
                od = self.f_route[fid]
                if od == NONE_CODE or od == LOCAL:
                    self._stray_eject(n, s, fid, cycle)
                    return
                # _request_vc_alloc, inlined: the router's only request
                # wins its group and is claimed on the spot.
                self.va += 1
                m = lay.nbr[n][od]
                if m < 0:
                    return
                owner = self.owner
                best_t = NONE_CODE
                best_route = NONE_CODE
                best = -1
                base = m * lay.R
                for t, route in lay.admission[
                    (lay.class_of(m, self.p_dest[pid]) * 4 + (od + 2) % 4) * 2
                    + self.p_yx[pid]
                ]:
                    if t == EJECT_CODE:
                        best_t, best_route = t, route
                        break
                    t += base
                    if owner[t] == NONE_CODE:
                        credits = self._credits(t, cycle)
                        if credits > best:
                            best_t, best_route, best = t, route, credits
                if best_t == NONE_CODE:
                    return  # every candidate owned
                if best_t >= 0:
                    owner[best_t] = pid  # claim()
                out_vc[s] = best_t
                self.out_dir[s] = od
                self.f_look[fid] = best_route
        t = out_vc[s]
        if t == NONE_CODE:
            return
        avail = self.avail
        if t >= 0:
            # Inlined credits(cycle) > 0 with lazy release refresh; the
            # commit's own refresh would find nothing left to mature.
            r = self.rel[t]
            if r and r[0] <= cycle:
                a = avail[t]
                while r and r[0] <= cycle:
                    del r[0]
                    a += 1
                avail[t] = a
            if avail[t] <= 0:
                return
        self.sa += 1
        # _tally_contention over one buffered worm: one request on its
        # output, contended by nobody.
        od = self.out_dir[s]
        if od & 1:
            self.row_req += 1
        elif od != LOCAL:
            self.col_req += 1
        # MirrorAllocator.allocate on one request: the local arbiter of
        # its (port, direction slot) moves past the VC, the global one
        # to the other slot.
        V = self.V
        mi, place = divmod(bit, self._mod_bits)
        slot = 0 if od == self.layout.mod_slot0_dir[mi] else 1
        state = self.arb[n][mi]
        port, index = divmod(place, V)
        state[2 * port + slot] = index + 1 if index + 1 < V else 0
        state[4] = 1 - slot
        # ``_commit_switch_grant``
        if t >= 0:
            avail[t] -= 1
            self.expected[t] += 1
        win = self.sa_win[n]
        if not win:
            self.sa_routers.append(n)
        win.append((s, od, t))

    def _stray_eject(self, n: int, s: int, fid: int, cycle: int) -> None:
        """Defensive: early ejection should have consumed this flit."""
        qs = self.q[s]
        qs.pop(0)
        if not qs:
            self.occ_mask[n] &= ~self.slot_bitmask[s]
        self.rel[s].append(cycle + 2)
        if fid % self.F == self.F - 1:
            self.out_dir[s] = NONE_CODE
            self.out_vc[s] = NONE_CODE
            self.apid[s] = NONE_CODE
        self._eject(n, fid, cycle, early=True)

    # ------------------------------------------------------------------
    # Cycle body and run (Simulator.step / Simulator.run)
    # ------------------------------------------------------------------

    #: The SoA envelope is fault-free, so a drain timeout is always the
    #: hard failure path (never the paper's inactivity rule).
    has_faults = False

    @property
    def moves(self) -> int:
        return self.xb + self.bw

    def step(self, cycle: int) -> None:
        if self.generated < self.config.total_packets:
            self._generate(cycle)
        if self.src_busy:
            # Idle sources are strict no-ops in ``Source.inject``;
            # busy ones must run in node order.
            for n in sorted(self.src_busy):
                self._inject(n, cycle)
        self._net_step(cycle)

    def run(self, progress=None, progress_every: int = 5000) -> SimulationResult:
        cycle = drive(self, progress, progress_every)
        self._drop_survivors(cycle)
        return SimulationResult.from_stats(
            self.config,
            self._stats(),
            cycles=cycle + 1,
            generated=self.generated,
            faults=self.faults,
        )

    def _held(self):
        """``runloop.live_packets`` on array state: ``(n, pid)`` pairs."""
        F = self.F
        for n in range(self.N):
            for pid in self.s_queue[n]:
                yield n, pid
            if self.s_cur[n] != NONE_CODE:
                yield n, self.s_cur[n] // F
        buffered = [
            (n, fid)
            for n in range(self.N)
            for s in self.layout.router_slots[n]
            for fid in self.q[s]
        ]
        # Flits on wires (a run cut at max_cycles), at their receivers:
        # the wake buckets are the link registers.  Row-major, links in
        # CARDINALS order, launch order on a link — the reference's walk.
        on_wires = sorted(
            (n, din, at, fid)
            for at, bucket in self.wake.items()
            for n, landing in bucket.items()
            for din, fid in landing
        )
        buffered += [(n, fid) for n, _din, _at, fid in on_wires]
        counted: set[int] = set()
        for n, fid in buffered:
            pid = fid // F
            if pid not in counted and self.p_dropped[pid] == NONE_CODE:
                counted.add(pid)
                yield n, pid

    def stranded_census(self, cycle: int) -> StrandedCensus:
        """``Simulator.stranded_census`` on array state (fault-free)."""
        nodes = self.layout.nodes
        return StrandedCensus.of(
            self.outstanding,
            cycle,
            [(nodes[n], self.p_created[pid]) for n, pid in self._held()],
        )

    def _drop_survivors(self, cycle: int) -> None:
        """``Simulator._drop_survivors`` (fault-free: all UNDELIVERED)."""
        if self.outstanding == 0:
            return
        reason = DropReason.UNDELIVERED
        for _n, pid in self._held():
            if self.p_dropped[pid] != NONE_CODE or self.p_delivered[pid] != NONE_CODE:
                continue
            self.p_dropped[pid] = cycle
            self.total_dropped += 1
            self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
            if self.p_meas[pid]:
                self.dropped_packets += 1
        self.s_queue = [[] for _ in range(self.N)]
        self.s_cur = [NONE_CODE] * self.N
        self.s_vc = [NONE_CODE] * self.N
        self.q = [[] for _ in range(self.S)]
        self.occ_mask = [0] * self.N
        self.src_busy.clear()
        self.outstanding = 0

    # ------------------------------------------------------------------
    # Result assembly (the input of SimulationResult.from_stats)
    # ------------------------------------------------------------------

    def _stats(self) -> StatsCollector:
        """Flush the flat counters into a real StatsCollector."""
        stats = StatsCollector(num_nodes=self.config.num_nodes)
        stats.measuring = self._measuring
        stats.measure_start_cycle = self._measure_start
        stats.latencies = self.latencies
        stats.hops = self.hops_list
        stats.injected_packets = self.injected_packets
        stats.delivered_packets = self.delivered_packets
        stats.dropped_packets = self.dropped_packets
        stats.delivered_flits = self.delivered_flits
        stats.total_delivered = self.total_delivered
        stats.total_dropped = self.total_dropped
        stats.drops_by_reason = dict(self.drops_by_reason)
        stats.measured_cycles = self.measured_cycles
        stats.activity = ActivityCounters(
            buffer_writes=self.bw,
            buffer_reads=self.br,
            crossbar_traversals=self.xb,
            va_requests=self.va,
            sa_requests=self.sa,
            link_flits=self.lf,
            early_ejections=self.ee,
        )
        stats.contention = ContentionCounters(
            row_requests=self.row_req,
            row_contended=self.row_cont,
            column_requests=self.col_req,
            column_contended=self.col_cont,
        )
        stats.scheduler = SchedulerCounters(
            cycles=self.sched_cycles,
            router_steps=self.sched_steps,
            router_slots=self.sched_slots,
            wakeups=self.sched_wakeups,
            sleeps=self.sched_sleeps,
            full_sweep=self.full_sweep,
        )
        return stats


def run_soa_simulation(
    config: SimulationConfig,
    faults=None,
    *,
    schedule=None,
    full_sweep: bool = False,
) -> SimulationResult:
    """SoA-backend counterpart of :func:`repro.core.simulator.run_simulation`."""
    return SoASimulator(
        config, faults=faults, schedule=schedule, full_sweep=full_sweep
    ).run()
