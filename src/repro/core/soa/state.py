"""The object <-> struct-of-arrays state bridge.

The SoA engine keeps no :class:`~repro.core.types.Flit` objects, so
consumers that walk live object state — the audit engine, probes,
ad-hoc debugging — cannot attach to it directly.  This module gives
them a sanctioned path instead:

* :func:`encode_state` captures the complete *dynamic* mid-run state of
  either backend as one canonical, hashable :class:`SoAState` value;
* :func:`decode_state` rebuilds a live object-model
  :class:`~repro.core.simulator.Simulator` from such a value, suitable
  for :class:`~repro.audit.engine.AuditEngine` checks or for continued
  (non-generating) stepping;
* :func:`states_equal` / :func:`state_diff` compare two captures.

Because both backends encode to the same canonical form, equality of
encodings is the cross-backend equivalence oracle used by the property
tests (tests/test_soa_state_properties.py): stepping and encoding must
commute.

Canonicalisation rules (what "the same state" means):

* **Credits** — release entries mature (``<= cycle``) at encode time
  are folded into the available count, exactly as the lazy
  ``credits()`` refresh would; only future releases are kept.  The two
  backends refresh at slightly different moments, so raw
  ``(_available, _releases)`` pairs are not comparable but the folded
  view is.
* **VC hints** — ``Flit.vc_hint`` is written at launch and consumed at
  link delivery, never cleared; buffered flits therefore carry stale
  hints that are unreadable garbage.  Hints are encoded only for flits
  in flight on a link and normalised to ``NONE_CODE`` everywhere else.
* **Dead packets** — delivered and dropped packets leave no flits
  behind; their bookkeeping lives in the statistics totals.  Only
  packets still alive in the system (source-queued, streaming, or with
  flits buffered / on a wire) get a row.
* **Link order** — the object model stores wire flits in per-link
  deques, the SoA engine in per-cycle wake buckets.  Both are flattened
  to ``(arrival_cycle, receiver, input_dir, fid)`` tuples and sorted;
  the order is total because inter-router links are single-lane (at
  most one flit per link per arrival cycle).
* **RNG** — deliberately *not* captured.  A decoded simulator carries a
  fresh ``random.Random(config.seed)`` and a draw generator still at
  cycle 0, so it cannot replay the donor's generation (``sim.step``
  refuses to generate out of order).  Network stepping
  (:meth:`Network.step` / ``_net_step``) draws nothing, which is
  exactly the scope of the commute guarantee.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields

from repro.core.simulator import Simulator
from repro.core.soa.engine import SoASimulator
from repro.core.soa.layout import EJECT_CODE, NONE_CODE
from repro.core.types import Direction, Packet, make_packet_flits
from repro.routers.base import EJECT


@dataclass(frozen=True)
class SoAState:
    """One backend-agnostic capture of a simulator's dynamic state.

    All fields are plain ints, strings and nested tuples: instances are
    hashable, directly comparable with ``==``, and printable.  Codes
    follow the SoA engine's conventions — routers and sources are
    row-major node indices, VCs are global slot ids (layout order),
    directions are ``Direction`` int values, ``NONE_CODE`` stands for
    ``None`` and ``EJECT_CODE`` for the early-ejection pseudo-target.
    """

    # -- structural header (guards decode against a mismatched config) --
    router: str
    routing: str
    width: int
    height: int
    flits_per_packet: int
    full_sweep: bool

    # -- scalars --
    cycle: int
    generated: int
    outstanding: int
    total_delivered: int
    total_dropped: int

    #: Live packets, sorted by pid:
    #: ``(pid, src, dest, created, injected, yx_first, flits_delivered,
    #: hops, measured)``.
    packets: tuple
    #: Live flits, sorted by fid: ``(fid, route, lookahead, hint,
    #: arrival)`` — ``hint`` is ``NONE_CODE`` unless the flit is on a
    #: wire (see module docstring).
    flits: tuple
    #: Per slot (layout order): ``(queue_fids, out_dir, out_vc,
    #: active_pid, owner_pid, expected, available, future_releases)``.
    vcs: tuple
    #: Wire flits, sorted: ``(arrival_cycle, receiver, input_dir, fid)``.
    links: tuple
    #: Per source node: ``(queued_pids, streaming_fid, claimed_slot)``.
    sources: tuple
    #: Per router: 1 if in the activity scheduler's active set.
    active: tuple
    #: Per router: pending SA winners ``(slot, out_dir, out_vc)`` in
    #: grant order (traversed next cycle).
    sa_winners: tuple
    #: Per router: RoCo's allocate-entry occupancy snapshot
    #: (``_alloc_occupied``); empty for the generic router.
    occupied: tuple
    #: Per router: round-robin arbiter pointers.  Generic: 10-tuple
    #: ``[SA1 x5 | SA2 x5]`` in Direction order.  RoCo: one tuple per
    #: module (ROW, COLUMN) — mirror ``(l00, l01, l10, l11, global)``,
    #: sequential ``(port0, port1, dir0, dir1)``.
    arbiters: tuple


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _fold_credits(available: int, releases, cycle: int) -> tuple[int, tuple]:
    """Apply the lazy ``credits()`` refresh without mutating the donor."""
    matured = 0
    future = []
    for at in releases:
        if at <= cycle:
            matured += 1
        else:
            future.append(at)
    return available + matured, tuple(future)


def _packet_row(pid, src, dest, created, injected, yx, fdel, hops, measured):
    return (pid, src, dest, created, injected, yx, fdel, hops, measured)


def encode_state(sim, cycle: int | None = None) -> SoAState:
    """Capture ``sim`` (either backend) as a canonical :class:`SoAState`.

    ``cycle`` defaults to the simulator's own clock (the last stepped
    cycle) and is only needed when encoding between phases of a
    hand-driven loop.
    """
    if isinstance(sim, SoASimulator):
        return _encode_soa(sim, cycle)
    if isinstance(sim, Simulator):
        return _encode_object(sim, cycle)
    raise TypeError(f"cannot encode {type(sim).__name__}: not a known backend")


def _encode_soa(sim: SoASimulator, cycle: int | None) -> SoAState:
    lay = sim.layout
    F = sim.F
    if cycle is None:
        cycle = sim.net_cycle

    wire_fids = set()
    links = []
    for at, bucket in sim.wake.items():
        for recv, landing in bucket.items():
            for din, fid in landing:
                links.append((at, recv, din, fid))
                wire_fids.add(fid)
    links.sort()

    live_fids = set(wire_fids)
    for s in range(sim.S):
        live_fids.update(sim.q[s])
    sources = []
    for n in range(sim.N):
        cur = sim.s_cur[n]
        if cur != NONE_CODE:
            live_fids.update(range(cur, (cur // F + 1) * F))
        sources.append((tuple(sim.s_queue[n]), cur, sim.s_vc[n]))

    live_pids = {fid // F for fid in live_fids}
    for queued, _cur, _vc in sources:
        live_pids.update(queued)

    packets = tuple(
        _packet_row(
            pid,
            sim.p_src[pid],
            sim.p_dest[pid],
            sim.p_created[pid],
            sim.p_injected[pid],
            sim.p_yx[pid],
            sim.p_fdel[pid],
            sim.p_hops[pid],
            int(sim.p_meas[pid]),
        )
        for pid in sorted(live_pids)
    )
    flits = tuple(
        (
            fid,
            sim.f_route[fid],
            sim.f_look[fid],
            sim.f_hint[fid] if fid in wire_fids else NONE_CODE,
            sim.f_arrival[fid],
        )
        for fid in sorted(live_fids)
    )
    vcs = []
    for s in range(sim.S):
        avail, future = _fold_credits(sim.avail[s], sim.rel[s], cycle)
        vcs.append(
            (
                tuple(sim.q[s]),
                sim.out_dir[s],
                sim.out_vc[s],
                sim.apid[s],
                sim.owner[s],
                sim.expected[s],
                avail,
                future,
            )
        )

    if lay.arch == "roco":
        occupied = tuple(int(b) for b in sim.r_occupied)
        arbiters = tuple(
            (tuple(mod[0]), tuple(mod[1])) for mod in sim.arb
        )
    else:
        occupied = ()
        arbiters = tuple(tuple(row) for row in sim.arb)

    return SoAState(
        router=lay.arch,
        routing=sim.config.routing.value,
        width=lay.width,
        height=lay.height,
        flits_per_packet=F,
        full_sweep=sim.full_sweep,
        cycle=cycle,
        generated=sim.generated,
        outstanding=sim.outstanding,
        total_delivered=sim.total_delivered,
        total_dropped=sim.total_dropped,
        packets=packets,
        flits=flits,
        vcs=tuple(vcs),
        links=tuple(links),
        sources=tuple(sources),
        active=tuple(int(b) for b in sim.r_active),
        sa_winners=tuple(tuple(w) for w in sim.sa_win),
        occupied=occupied,
        arbiters=arbiters,
    )


def _object_tables(network):
    """Slot/node maps for a live object network, in layout order."""
    slot_of: dict[int, int] = {}
    vcs: list = []
    for router in network._router_list:
        for vc in router.all_vcs():
            slot_of[id(vc)] = len(vcs)
            vcs.append(vc)
    node_index = {node: n for n, node in enumerate(network.nodes)}
    return slot_of, vcs, node_index


def _code_target(target, slot_of) -> int:
    if target is None:
        return NONE_CODE
    if target is EJECT:
        return EJECT_CODE
    return slot_of[id(target)]


def _code_dir(direction) -> int:
    return NONE_CODE if direction is None else int(direction)


def _encode_object(sim: Simulator, cycle: int | None) -> SoAState:
    network = sim.network
    config = sim.config
    F = config.flits_per_packet
    if cycle is None:
        cycle = network.cycle
    slot_of, vcs, node_index = _object_tables(network)

    seen_packets: dict[int, Packet] = {}
    seen_flits: dict[int, object] = {}

    def note(flit) -> int:
        fid = flit.packet.pid * F + flit.seq
        seen_packets[flit.packet.pid] = flit.packet
        seen_flits[fid] = flit
        return fid

    links = []
    wire_fids = set()
    for router in network._router_list:
        for port in router.outputs.values():
            recv = node_index[port.downstream.node]
            din = int(port.input_dir)
            for at, flit in port.link._in_flight:
                fid = note(flit)
                wire_fids.add(fid)
                links.append((at, recv, din, fid))
    links.sort()

    vc_rows = []
    for vc in vcs:
        queue = tuple(note(flit) for flit in vc.queue)
        avail, future = _fold_credits(vc._available, vc._releases, cycle)
        vc_rows.append(
            (
                queue,
                _code_dir(vc.out_dir),
                _code_target(vc.out_vc, slot_of),
                NONE_CODE if vc.active_pid is None else vc.active_pid,
                NONE_CODE if vc.owner_pid is None else vc.owner_pid,
                vc.expected,
                avail,
                future,
            )
        )

    sources = []
    for node in network.nodes:
        source = sim.sources[node]
        for packet in source.queue:
            seen_packets[packet.pid] = packet
        if source.current:
            cur = note(source.current[0])
            for flit in source.current:
                note(flit)
            slot = slot_of[id(source.vc)]
        else:
            cur = NONE_CODE
            slot = NONE_CODE
        sources.append((tuple(p.pid for p in source.queue), cur, slot))

    packets = tuple(
        _packet_row(
            pid,
            node_index[p.src],
            node_index[p.dest],
            p.created_cycle,
            NONE_CODE if p.injected_cycle is None else p.injected_cycle,
            int(p.yx_first),
            p.flits_delivered,
            p.hops,
            int(p.measured),
        )
        for pid, p in sorted(seen_packets.items())
    )
    flits = tuple(
        (
            fid,
            _code_dir(flit.route),
            _code_dir(flit.lookahead_route),
            _code_target(flit.vc_hint, slot_of) if fid in wire_fids else NONE_CODE,
            flit.arrival,
        )
        for fid, flit in sorted(seen_flits.items())
    )

    sa_winners = tuple(
        tuple(
            (slot_of[id(vc)], int(out_dir), _code_target(out_vc, slot_of))
            for vc, out_dir, out_vc in router._sa_winners
        )
        for router in network._router_list
    )

    if config.router == "roco":
        occupied = tuple(
            int(router._alloc_occupied) for router in network._router_list
        )
        arbiters = tuple(
            _roco_arb(router) for router in network._router_list
        )
    else:
        occupied = ()
        arbiters = tuple(_generic_arb(router) for router in network._router_list)

    return SoAState(
        router=config.router,
        routing=config.routing.value,
        width=config.width,
        height=config.height,
        flits_per_packet=F,
        full_sweep=network.full_sweep,
        cycle=cycle,
        generated=sim.generated,
        outstanding=sim.outstanding,
        total_delivered=network.stats.total_delivered,
        total_dropped=network.stats.total_dropped,
        packets=packets,
        flits=flits,
        vcs=tuple(vc_rows),
        links=tuple(links),
        sources=tuple(sources),
        active=tuple(int(router.active) for router in network._router_list),
        sa_winners=sa_winners,
        occupied=occupied,
        arbiters=arbiters,
    )


def _generic_arb(router) -> tuple:
    return tuple(
        router._sa_stage1[Direction(d)]._next for d in range(5)
    ) + tuple(router._sa_stage2[Direction(d)]._next for d in range(5))


def _roco_arb(router) -> tuple:
    mods = []
    for module in router.modules.values():
        alloc = module.allocator
        if hasattr(alloc, "_global"):  # MirrorAllocator
            local = alloc._local
            mods.append(
                (
                    local[0][0]._next,
                    local[0][1]._next,
                    local[1][0]._next,
                    local[1][1]._next,
                    alloc._global._next,
                )
            )
        else:  # SequentialAllocator
            mods.append(
                (
                    alloc._port_stage[0]._next,
                    alloc._port_stage[1]._next,
                    alloc._direction_stage[0]._next,
                    alloc._direction_stage[1]._next,
                )
            )
    return tuple(mods)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def decode_state(state: SoAState, config) -> Simulator:
    """Rebuild a live object-model :class:`Simulator` from ``state``.

    The returned simulator's network is a faithful reconstruction of
    the captured mid-run state: the audit engine can snapshot and check
    it, and ``network.step(state.cycle + 1)`` advances it exactly as
    the donor would (see the commute property tests).  The rng is fresh
    (see the module docstring), so phases that draw — generation, the
    XY-YX coin flip — are out of the guarantee.
    """
    header = (
        config.router,
        config.routing.value,
        config.width,
        config.height,
        config.flits_per_packet,
    )
    expected = (
        state.router,
        state.routing,
        state.width,
        state.height,
        state.flits_per_packet,
    )
    if header != expected:
        raise ValueError(
            f"config {header} does not match encoded state {expected}"
        )
    sim = Simulator(config, full_sweep=state.full_sweep)
    network = sim.network
    F = state.flits_per_packet
    slot_of, vcs, _node_index = _object_tables(network)
    nodes = network.nodes
    routers = network._router_list

    def target_of(code: int):
        if code == NONE_CODE:
            return None
        if code == EJECT_CODE:
            return EJECT
        return vcs[code]

    def dir_of(code: int):
        return None if code == NONE_CODE else Direction(code)

    # Packets and their full flit worms (unused flits are just dropped).
    packets: dict[int, Packet] = {}
    flit_of: dict[int, object] = {}
    for pid, src, dest, created, injected, yx, fdel, hops, measured in state.packets:
        packet = Packet(
            pid=pid,
            src=nodes[src],
            dest=nodes[dest],
            size=F,
            created_cycle=created,
        )
        packet.injected_cycle = None if injected == NONE_CODE else injected
        packet.yx_first = bool(yx)
        packet.flits_delivered = fdel
        packet.hops = hops
        packet.measured = bool(measured)
        packets[pid] = packet
        for seq, flit in enumerate(make_packet_flits(packet)):
            flit_of[pid * F + seq] = flit
    for fid, route, look, hint, arrival in state.flits:
        flit = flit_of[fid]
        flit.route = dir_of(route)
        flit.lookahead_route = dir_of(look)
        flit.vc_hint = target_of(hint)
        flit.arrival = arrival

    # VC buffers, routes and credit ledgers.
    for vc, (queue, out_dir, out_vc, apid, owner, expected_n, avail, future) in zip(
        vcs, state.vcs
    ):
        vc.restore(flit_of[fid] for fid in queue)
        vc.out_dir = dir_of(out_dir)
        vc.out_vc = target_of(out_vc)
        vc.active_pid = None if apid == NONE_CODE else apid
        vc.owner_pid = None if owner == NONE_CODE else owner
        vc.expected = expected_n
        vc._available = avail
        vc._releases = deque(future)

    # Wire flits: per-link deques plus the landing-cycle wake bucket
    # (the latter is a no-op under the full-sweep scheduler).
    for at, recv, din, fid in state.links:
        receiver = routers[recv]
        input_dir = Direction(din)
        upstream = receiver._in_link_map[input_dir]
        upstream._in_flight.append((at, flit_of[fid]))
        upstream.sends += 1
        network.schedule_wake(receiver, input_dir, at)

    # Sources: waiting packets and the worm being streamed.
    for n, (queued, cur, slot) in enumerate(state.sources):
        source = sim.sources[nodes[n]]
        source.queue.extend(packets[pid] for pid in queued)
        if cur != NONE_CODE:
            pid = cur // F
            source.current = deque(
                flit_of[fid] for fid in range(cur, (pid + 1) * F)
            )
            source.vc = vcs[slot]

    # Router dynamic state: scheduler flags, pending SA winners,
    # quiescence snapshots and arbiter priority pointers.
    for n, router in enumerate(routers):
        router.active = bool(state.active[n])
        router._sa_winners = [
            (vcs[s], Direction(od), target_of(t))
            for s, od, t in state.sa_winners[n]
        ]
        arb = state.arbiters[n]
        if state.router == "roco":
            router._alloc_occupied = bool(state.occupied[n])
            for module, pointers in zip(router.modules.values(), arb):
                alloc = module.allocator
                if hasattr(alloc, "_global"):
                    l00, l01, l10, l11, g = pointers
                    alloc._local[0][0]._next = l00
                    alloc._local[0][1]._next = l01
                    alloc._local[1][0]._next = l10
                    alloc._local[1][1]._next = l11
                    alloc._global._next = g
                else:
                    p0, p1, d0, d1 = pointers
                    alloc._port_stage[0]._next = p0
                    alloc._port_stage[1]._next = p1
                    alloc._direction_stage[0]._next = d0
                    alloc._direction_stage[1]._next = d1
        else:
            for d in range(5):
                router._sa_stage1[Direction(d)]._next = arb[d]
                router._sa_stage2[Direction(d)]._next = arb[5 + d]

    # Scalars.
    network.cycle = state.cycle
    sim._generated = state.generated
    sim._outstanding = state.outstanding
    network.stats.total_delivered = state.total_delivered
    network.stats.total_dropped = state.total_dropped
    return sim


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def states_equal(a: SoAState, b: SoAState) -> bool:
    """Whether two captures describe the same dynamic state."""
    return a == b


def state_diff(a: SoAState, b: SoAState) -> list[str]:
    """Human-readable description of where two captures differ.

    Returns one line per differing field; for tuple fields the first
    differing element is quoted.  Empty when the states are equal.
    """
    lines: list[str] = []
    for f in fields(SoAState):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if va == vb:
            continue
        if isinstance(va, tuple) and isinstance(vb, tuple):
            if len(va) != len(vb):
                lines.append(
                    f"{f.name}: lengths differ ({len(va)} vs {len(vb)})"
                )
                continue
            for i, (ea, eb) in enumerate(zip(va, vb)):
                if ea != eb:
                    lines.append(f"{f.name}[{i}]: {ea!r} != {eb!r}")
                    break
        else:
            lines.append(f"{f.name}: {va!r} != {vb!r}")
    return lines


# ----------------------------------------------------------------------
# Test/driver helper
# ----------------------------------------------------------------------


def run_cycles(sim, cycles: int, start: int = 0) -> int:
    """Advance either backend by ``cycles`` whole cycles.

    Calls the engine's own ``step`` — what ``run()`` does per cycle —
    without the termination/progress machinery, so tests can stop a run
    mid-flight and hand the state to :func:`encode_state`.  Returns the
    next cycle index (pass it back as ``start`` to continue).
    """
    end = start + cycles
    for cycle in range(start, end):
        sim.step(cycle)
    return end
