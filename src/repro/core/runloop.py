"""What every cycle engine shares around its kernels.

The object reference (:mod:`repro.core.simulator`), the struct-of-arrays
fast path (:mod:`repro.core.soa.engine`) and the sharded coordinator
(:mod:`repro.harness.sharded`) each own their state, their
``step(cycle)`` and their phase kernels.  What surrounds those is
decided here, once: when a run ends (:func:`drive`), where unfinished
packets are looked for (:func:`live_packets`) and the order of the rng
draws that generate traffic (:func:`packet_draws`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import XY_YX, NodeId, Packet
from repro.routing.xyyx import choose_variant
from repro.traffic.base import TrafficPattern


class DeadlockError(RuntimeError):
    """Raised when a fault-free network stops making progress entirely."""


class AuditViolation(RuntimeError):
    """An audited run broke an invariant: its state is corrupt.

    The base of ``repro.audit``'s ``InvariantViolation``, declared here
    so the job engine and the command line can name it without
    importing the audit package.
    """


#: What makes a run *fail*: the command line's exit status 1, what the
#: shrinker preserves, and what the job engine never retries.  Each one
#: an engine raises carries the ``cycle`` it was raised at.
RUN_FAILURES = (DeadlockError, AuditViolation)


@dataclass
class StrandedCensus:
    """Snapshot of outstanding traffic when a run fails to drain.

    ``per_node`` counts outstanding packets by the node holding them
    (source queue or buffered flits); ``dead_modules`` maps faulted nodes
    to their dead granularity (module names, or ``("node",)`` for a
    whole-router kill); ``unreachable`` counts stranded packets whose
    destination the reachability pass says cannot be reached any more.
    """

    outstanding: int
    per_node: dict[NodeId, int]
    oldest_age: int
    dead_modules: dict[NodeId, tuple[str, ...]]
    unreachable: int

    @classmethod
    def of(cls, outstanding, cycle, held, dead_modules=None, unreachable=0):
        """The census of a survivor walk's ``(node, created_cycle)`` pairs."""
        per_node: dict[NodeId, int] = {}
        oldest = 0
        for node, created in held:
            per_node[node] = per_node.get(node, 0) + 1
            oldest = max(oldest, cycle - created)
        return cls(outstanding, per_node, oldest, dead_modules or {}, unreachable)

    def describe(self) -> str:
        hottest = sorted(self.per_node.items(), key=lambda kv: -kv[1])[:5]
        spots = ", ".join(f"{node}:{count}" for node, count in hottest)
        dead = ", ".join(
            f"{node}[{'+'.join(parts)}]"
            for node, parts in sorted(
                self.dead_modules.items(), key=lambda kv: (kv[0].y, kv[0].x)
            )
        )
        return (
            f"{self.outstanding} packets outstanding "
            f"(oldest {self.oldest_age} cycles, {self.unreachable} unreachable); "
            f"hottest nodes: {spots or 'none'}; "
            f"dead: {dead or 'none'}"
        )


class DrainTimeoutError(DeadlockError):
    """No-progress drain timeout at ``cycle``, with a census of the
    stranded traffic."""

    def __init__(self, message: str, census: StrandedCensus, cycle: int) -> None:
        super().__init__(f"{message}: {census.describe()}")
        self.census = census
        self.cycle = cycle


def drive(engine, progress=None, progress_every: int = 5000) -> int:
    """Step ``engine`` until its run ends; returns the last cycle stepped.

    The engine supplies ``config``, ``step(cycle)`` (one whole cycle),
    the post-step counts ``generated``, ``outstanding`` and ``moves``
    (flit movements so far), ``has_faults`` and ``stranded_census``.
    A run ends once the packet budget was created and nothing is
    outstanding, or at ``max_cycles``.  It is cut short when neither
    ``moves`` nor ``outstanding`` changed for ``drain_timeout`` cycles:
    a faulty network stops there (the paper's inactivity rule — what is
    stranded is the measured outcome); a healthy one cannot strand
    traffic, so with packets outstanding that is a
    :class:`DrainTimeoutError`.  A healthy network with nothing
    outstanding is only waiting for its next packet, however long the
    gap between two arrivals: it runs on.  ``progress`` is called as
    documented on :meth:`Simulator.run`.
    """
    config = engine.config
    total_packets = config.total_packets
    drain_timeout = config.drain_timeout
    last_progress_cycle = 0
    last_signature = (-1, -1)
    cycle = 0
    for cycle in range(config.max_cycles):
        engine.step(cycle)
        outstanding = engine.outstanding
        if progress is not None and cycle and cycle % progress_every == 0:
            progress(cycle, engine.generated, outstanding)
        signature = (engine.moves, outstanding)
        if signature != last_signature:
            last_signature = signature
            last_progress_cycle = cycle
        if outstanding == 0 and engine.generated >= total_packets:
            break
        if cycle - last_progress_cycle > drain_timeout:
            if engine.has_faults:
                break
            if outstanding:
                raise DrainTimeoutError(
                    f"no progress for {drain_timeout} cycles at cycle {cycle}",
                    engine.stranded_census(cycle),
                    cycle,
                )
    return cycle


def live_packets(sources: dict, routers: dict):
    """Yield ``(node, packet)`` where unfinished packets sit.

    The reference order: per source its queued packets, then the worm
    it is streaming; then the router VC queues row-major, then the
    routers' inbound link registers row-major (flits on a wire, held at
    the router they are bound for) — each packet once at the first
    place holding a flit of it, skipping packets already dropped (their
    late flits can still land).  Only a run cut at ``max_cycles`` has
    flits on wires: a packet whose remaining flits are all there is met
    nowhere else.  A tile's inbound registers include its ghosts'
    egress, and its own egress is empty between steps, so a flit
    crossing a cut is met once, on the receiving tile.  A streamed worm
    is met at its source and again in the network: dropping is
    idempotent, the census counts both.  Queues and links are walked
    over snapshots, so a consumer may drop what it is handed.
    """
    for node, source in sources.items():
        for packet in source.queue:
            yield node, packet
        if source.current:
            yield node, source.current[0].packet
    seen: set[int] = set()

    def first_meeting(node, flits):
        for flit in flits:
            packet = flit.packet
            if packet.pid not in seen and packet.dropped_cycle is None:
                seen.add(packet.pid)
                yield node, packet

    for node, router in routers.items():
        for vc in router.all_vcs():
            yield from first_meeting(node, tuple(vc.queue))
    for node, router in routers.items():
        for _direction, link in router._in_links:
            yield from first_meeting(node, link.pending())


def packet_draws(config, traffic, rng, nodes: list, blocked=None):
    """Yield ``(cycle, packets)`` per cycle from 0: the one draw order.

    Per node of ``nodes``, in order, exactly one ``traffic.arrivals``
    call; per arrival the destination, then the XY-YX variant coin.
    Packets from the ``warmup_packets``-th on are ``measured``.  Drawing
    stops mid-cycle at the ``total_packets`` budget; the generator ends
    there or at ``max_cycles``.  ``nodes`` is re-read every cycle (the
    owner edits it in place when a runtime fault changes which routers
    accept injection); ``blocked()`` returns the node-health predicate
    for fault-aware variant choice, or None while the mesh is healthy.

    A pattern that keeps the base Bernoulli ``arrivals`` has it inlined
    here: the same one ``traffic.rng.random()`` per node against the
    bound ``packet_rate``, so the same draws, without a call and a
    ``range`` per node per cycle.
    """
    arrivals = traffic.arrivals
    bernoulli = type(traffic).arrivals is TrafficPattern.arrivals
    draw = traffic.rng.random if bernoulli else None
    rate = traffic.packet_rate
    destination = traffic.destination
    use_yx = config.routing is XY_YX
    size = config.flits_per_packet
    total = config.total_packets
    warmup = config.warmup_packets
    pid = 0
    for cycle in range(config.max_cycles):
        packets: list[Packet] = []
        is_blocked = blocked() if use_yx and blocked is not None else None
        for node in nodes:
            if bernoulli:
                if draw() >= rate:
                    continue
                count = 1
            else:
                count = arrivals(node, cycle)
            for _ in range(count):
                dest = destination(node)
                packet = Packet(pid, node, dest, size, cycle, measured=pid >= warmup)
                if use_yx:
                    packet.yx_first = choose_variant(node, dest, rng, is_blocked)
                packets.append(packet)
                pid += 1
                if pid >= total:
                    yield cycle, packets
                    return
        yield cycle, packets
