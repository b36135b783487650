"""The flit-level cycle-accurate simulator (paper Section 5.1).

Orchestrates a run: packet generation per the traffic pattern, injection
through per-node sources, network cycle stepping, termination detection
(drain in healthy networks, inactivity timeout in faulty ones — the
paper stops a faulty run after twice the fault-free completion time),
and the final energy accounting.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field

from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.statistics import SchedulerCounters, StatsCollector
from repro.core.types import (
    DropReason,
    Flit,
    NodeId,
    Packet,
    RoutingMode,
    make_packet_flits,
)
from repro.energy.model import EnergyModel, EnergyReport
from repro.faults.injector import ComponentFault, apply_faults
from repro.faults.runtime import RuntimeFaultEngine
from repro.faults.schedule import FaultSchedule
from repro.metrics.latency import LatencySummary
from repro.metrics.pef import pef
from repro.routing.xyyx import choose_variant
from repro.traffic import TrafficPattern, make_traffic


class DeadlockError(RuntimeError):
    """Raised when a fault-free network stops making progress entirely."""


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
    """No-progress drain timeout, with a census of the stranded traffic."""

    def __init__(self, message: str, census: StrandedCensus) -> None:
        super().__init__(f"{message}: {census.describe()}")
        self.census = census


class Source:
    """Per-node packet source: a generation queue feeding the PE port."""

    __slots__ = ("node", "router", "queue", "current", "vc")

    def __init__(self, node: NodeId, router) -> None:
        self.node = node
        self.router = router
        #: Generated packets waiting to start injection.
        self.queue: deque[Packet] = deque()
        #: Flits of the packet currently being streamed into its VC.
        self.current: deque[Flit] | None = None
        self.vc = None

    def inject(self, network: Network, cycle: int) -> None:
        """Advance injection by at most one flit (PE link bandwidth)."""
        if self.current is None and self.queue:
            self._start_next_packet(network, cycle)
        if not self.current:
            return
        flit = self.current[0]
        if flit.packet.dropped_cycle is not None:
            if self.vc.owner_pid == flit.packet.pid:
                self.vc.release_owner()
            self.current = None
            self.vc = None
            return
        if self.vc.credits(cycle) <= 0:
            return
        self.current.popleft()
        self.vc.reserve_slot(cycle)
        self.vc.push(flit)
        # Source injection is one of the two scheduler wake events (the
        # other is an inbound link launch): the router must allocate for
        # this flit in the current cycle, exactly as under a full sweep.
        self.router.wake()
        flit.arrival = cycle
        if network.trace is not None:
            from repro.instrumentation.trace import EventKind

            network.trace.record(cycle, EventKind.INJECT, flit, self.node)
        if flit.is_head:
            self.vc.active_pid = flit.packet.pid
        network.stats.activity.buffer_writes += 1
        if not self.current:
            # Tail pushed: release the VC for the next worm.
            self.vc.release_owner()
            self.current = None
            self.vc = None

    def _start_next_packet(self, network: Network, cycle: int) -> None:
        packet = self.queue[0]
        if not self.router.injection_possible(packet):
            # The packet can never leave this PE (e.g. the only module
            # able to start its route is dead) — it is lost.
            self.queue.popleft()
            network.drop_packet(packet, cycle, DropReason.INJECTION_BLOCKED)
            return
        admission = self.router.injection_vc_for(packet)
        if admission is None:
            return
        vc, route = admission
        vc.claim(packet.pid)
        self.queue.popleft()
        packet.injected_cycle = cycle
        flits = make_packet_flits(packet)
        flits[0].route = route
        self.current = deque(flits)
        self.vc = vc

    @property
    def backlog(self) -> int:
        queued = sum(p.size for p in self.queue)
        return queued + (len(self.current) if self.current else 0)


@dataclass
class SimulationResult:
    """Everything a finished run reports."""

    config: SimulationConfig
    average_latency: float
    latency: LatencySummary
    average_hops: float
    injected_packets: int
    delivered_packets: int
    dropped_packets: int
    completion_probability: float
    throughput: float
    cycles: int
    energy: EnergyReport
    contention_row: float
    contention_column: float
    contention_overall: float
    faults: list[ComponentFault] = field(default_factory=list)
    #: Activity-driven scheduler telemetry (duty cycle, wake/sleep
    #: counts).  Deliberately *not* part of the exported result record:
    #: it describes how the run was executed, not what it simulated, and
    #: it legitimately differs between the two schedulers.
    scheduler: SchedulerCounters = field(default_factory=SchedulerCounters)
    #: Packet-conservation accounting over *all* packets (warm-up
    #: included), keyed by DropReason value.  Like ``scheduler``, these
    #: are not part of the exported result record (the record's schema
    #: is pinned by the golden fixture and the result cache); consumers
    #: wanting resilience detail read them off the result object or via
    #: repro.metrics.resilience.PacketAccounting.
    generated_packets: int = 0
    total_delivered: int = 0
    total_dropped: int = 0
    drops_by_reason: dict = field(default_factory=dict)
    #: Sharded runs only (repro.harness.sharded): one SchedulerCounters
    #: per tile, in tile row-major order.  Empty for single-process
    #: runs; like ``scheduler``, excluded from the exported record.
    tile_scheduler: list = field(default_factory=list)

    @property
    def conserved(self) -> bool:
        """Delivered + dropped(reason) == generated (nothing leaked)."""
        return (
            self.generated_packets == self.total_delivered + self.total_dropped
            and sum(self.drops_by_reason.values()) == self.total_dropped
        )

    @property
    def energy_per_packet_nj(self) -> float:
        return self.energy.per_packet_nj

    @property
    def edp(self) -> float:
        """Energy-Delay Product in nJ x cycles."""
        return self.average_latency * self.energy_per_packet_nj

    @property
    def pef(self) -> float:
        """Performance-Energy-Fault-tolerance metric (nJ x cycles / prob)."""
        return pef(
            self.average_latency,
            self.energy_per_packet_nj,
            self.completion_probability,
        )

    def summary_line(self) -> str:
        return (
            f"{self.config.router:>14s} {self.config.routing.value:>8s} "
            f"{self.config.traffic:>12s} rate={self.config.injection_rate:.2f} "
            f"lat={self.average_latency:7.2f} cyc "
            f"E/pkt={self.energy_per_packet_nj:6.3f} nJ "
            f"compl={self.completion_probability:5.3f} pef={self.pef:8.2f}"
        )


class Simulator:
    """One end-to-end simulation run."""

    def __init__(
        self,
        config: SimulationConfig,
        traffic: TrafficPattern | None = None,
        faults: list[ComponentFault] | None = None,
        *,
        schedule: FaultSchedule | None = None,
        full_sweep: bool = False,
    ) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.network = Network(config, full_sweep=full_sweep)
        self.traffic = traffic if traffic is not None else make_traffic(config.traffic)
        self.traffic.bind(config, self.rng, self.network.nodes)
        self.faults = list(faults) if faults else []
        apply_faults(self.network, self.faults)
        self.network.wire()
        self.sources = {
            node: Source(node, self.network.router_at(node))
            for node in self.network.nodes
        }
        #: Runtime fault campaign.  An empty schedule leaves every hot
        #: path untouched (the per-cycle check is two falsy deques), so
        #: campaign-with-no-events runs are bit-identical to plain runs.
        self.schedule = schedule if schedule else None
        self._pending_events = deque(self.schedule.events) if self.schedule else deque()
        self._expiries: list = []  # heap of (clear_cycle, seq, fault)
        self._expiry_seq = 0
        if self.schedule is not None:
            #: pid -> live Packet, so runtime eviction can resolve VC
            #: ownership claims; maintained only when a schedule exists.
            self._packet_registry: dict[int, Packet] | None = {}
            self._fault_engine: RuntimeFaultEngine | None = RuntimeFaultEngine(
                self.network, self._packet_registry.get
            )
        else:
            self._packet_registry = None
            self._fault_engine = None
        self._refresh_gen_sources()
        self._source_list = list(self.sources.values())
        self._generated = 0
        self._outstanding = 0
        self._next_pid = 0
        #: External observers (instrumentation probes) notified on
        #: packet completion events; see repro.instrumentation.
        self.delivery_listeners: list = []
        self.drop_listeners: list = []
        self.network.on_packet_delivered = self._on_packet_delivered
        self.network.on_packet_dropped = self._on_packet_dropped
        #: Runtime invariant auditing (repro.audit), opt-in via
        #: ``config.audit``.  Constructed here but attached at run()
        #: time so observers installed in between are chained, not
        #: rejected.
        if config.audit:
            from repro.audit.engine import AuditEngine

            self.audit: AuditEngine | None = AuditEngine(self)
        else:
            self.audit = None

    @property
    def generated(self) -> int:
        """Packets created so far (audit/diagnostic accounting)."""
        return self._generated

    @property
    def outstanding(self) -> int:
        """Packets created but not yet delivered or dropped."""
        return self._outstanding

    def _refresh_gen_sources(self) -> None:
        """(Re)compute the nodes able to inject, in node order.

        Without a runtime schedule fault state is permanent once applied,
        so this is computed exactly once; the runtime fault engine calls
        it again after every event batch, keeping the rng-draw sequence
        identical to filtering inline each cycle.
        """
        self._gen_sources = [
            (node, source)
            for node, source in self.sources.items()
            if source.router.accepting_any_injection()
        ]

    # ------------------------------------------------------------------

    def run(self, progress=None, progress_every: int = 5000) -> SimulationResult:
        """Simulate to completion and return the result record.

        ``progress(cycle, generated, outstanding)`` is invoked every
        ``progress_every`` cycles — useful for paper-scale runs where a
        pure-Python simulation takes minutes.  The reported counts are
        *post-step* values: they reflect generation, injection, delivery
        and drops up to and including ``cycle``.
        """
        config = self.config
        total_packets = config.total_packets  # a derived property
        stats = self.network.stats
        if self.audit is not None:
            self.audit.attach()
        last_progress_cycle = 0
        last_signature = (-1, -1)
        cycle = 0
        for cycle in range(config.max_cycles):
            if self._pending_events or self._expiries:
                self._process_fault_events(cycle)
            if self._generated < total_packets:
                self._generate(cycle)
            for source in self._source_list:
                # Inlined idle filter: inject() on a source with nothing
                # queued and no worm in flight is a no-op.
                if source.queue or source.current:
                    source.inject(self.network, cycle)
            self.network.step(cycle)
            if progress is not None and cycle and cycle % progress_every == 0:
                progress(cycle, self._generated, self._outstanding)

            signature = (
                stats.activity.crossbar_traversals + stats.activity.buffer_writes,
                self._outstanding,
            )
            if signature != last_signature:
                last_signature = signature
                last_progress_cycle = cycle
            if self._generated >= total_packets and self._outstanding == 0:
                break
            if cycle - last_progress_cycle > config.drain_timeout:
                if self.network.has_faults:
                    break  # The paper's inactivity termination rule.
                raise DrainTimeoutError(
                    f"no progress for {config.drain_timeout} cycles at cycle "
                    f"{cycle}",
                    self.stranded_census(cycle),
                )
        self._drop_survivors(cycle)
        if self.audit is not None:
            self.audit.final_check(cycle)
        return self._build_result(cycle + 1)

    # ------------------------------------------------------------------
    # Runtime fault campaign
    # ------------------------------------------------------------------

    def _process_fault_events(self, cycle: int) -> None:
        """Heal due transients and strike due events, in schedule order.

        Runs at the top of the cycle — before generation and injection —
        so a schedule firing entirely at cycle 0 produces exactly the
        state a static ``apply_faults`` run starts from.
        """
        engine = self._fault_engine
        touched = False
        while self._expiries and self._expiries[0][0] <= cycle:
            _, _, fault = heapq.heappop(self._expiries)
            engine.clear(fault, cycle)
            touched = True
        while self._pending_events and self._pending_events[0].cycle <= cycle:
            event = self._pending_events.popleft()
            engine.apply(event.fault, cycle)
            self.faults.append(event.fault)
            if event.duration is not None:
                self._expiry_seq += 1
                heapq.heappush(
                    self._expiries,
                    (cycle + event.duration, self._expiry_seq, event.fault),
                )
            touched = True
        if touched:
            self._refresh_gen_sources()

    def stranded_census(self, cycle: int) -> StrandedCensus:
        """Census of outstanding traffic (drain-timeout diagnostics)."""
        per_node: dict[NodeId, int] = {}
        oldest: int | None = None
        unreachable = 0
        reach = self.network.reachability if self.network.has_faults else None

        def tally(node: NodeId, packet: Packet) -> None:
            nonlocal oldest, unreachable
            per_node[node] = per_node.get(node, 0) + 1
            age = cycle - packet.created_cycle
            if oldest is None or age > oldest:
                oldest = age
            if reach is not None and not reach.reachable(
                node, packet.dest, packet.yx_first
            ):
                unreachable += 1

        for node, source in self.sources.items():
            for packet in source.queue:
                tally(node, packet)
            if source.current:
                tally(node, source.current[0].packet)
        counted: set[int] = set()
        for node, router in self.network.routers.items():
            for vc in router.all_vcs():
                for flit in vc.queue:
                    packet = flit.packet
                    if packet.pid in counted or packet.dropped_cycle is not None:
                        continue
                    counted.add(packet.pid)
                    tally(node, packet)
        dead_modules: dict[NodeId, tuple[str, ...]] = {}
        for node, router in self.network.routers.items():
            if router.dead:
                dead_modules[node] = ("node",)
                continue
            modules = getattr(router, "modules", None)
            if modules is not None:
                dead = tuple(name for name, m in modules.items() if m.dead)
                if dead:
                    dead_modules[node] = dead
        return StrandedCensus(
            outstanding=self._outstanding,
            per_node=per_node,
            oldest_age=oldest if oldest is not None else 0,
            dead_modules=dead_modules,
            unreachable=unreachable,
        )

    # ------------------------------------------------------------------

    def _generate(self, cycle: int) -> None:
        total = self.config.total_packets  # derived: read once, not per node
        arrivals = self.traffic.arrivals
        for node, source in self._gen_sources:
            if self._generated >= total:
                return
            for _ in range(arrivals(node, cycle)):
                source.queue.append(self._create_packet(node, cycle))
                if self._generated >= total:
                    return

    def _create_packet(self, src: NodeId, cycle: int) -> Packet:
        dest = self.traffic.destination(src)
        if self._generated == self.config.warmup_packets:
            self.network.stats.start_measurement(cycle)
        packet = Packet(
            pid=self._next_pid,
            src=src,
            dest=dest,
            size=self.config.flits_per_packet,
            created_cycle=cycle,
        )
        self._next_pid += 1
        self._generated += 1
        self._outstanding += 1
        if self._packet_registry is not None:
            self._packet_registry[packet.pid] = packet
        packet.measured = self.network.stats.packet_created(packet)
        if self.config.routing is RoutingMode.XY_YX:
            blocked = self.network.node_blocked if self.network.has_faults else None
            packet.yx_first = choose_variant(src, dest, self.rng, blocked)
        return packet

    def _on_packet_done(self, packet: Packet) -> None:
        self._outstanding -= 1
        if self._packet_registry is not None:
            self._packet_registry.pop(packet.pid, None)

    def _on_packet_delivered(self, packet: Packet) -> None:
        self._on_packet_done(packet)
        for listener in self.delivery_listeners:
            listener(packet)

    def _on_packet_dropped(self, packet: Packet) -> None:
        self._on_packet_done(packet)
        for listener in self.drop_listeners:
            listener(packet)

    def _drop_survivors(self, cycle: int) -> None:
        """Count packets still in flight / queued at termination as lost.

        In faulty runs each survivor is classified by the reachability
        pass: UNREACHABLE when no live routing path to its destination
        remains (stranded by the topology), UNDELIVERED when a path
        existed but the run ended first.
        """
        if self._outstanding == 0:
            return
        reach = self.network.reachability if self.network.has_faults else None

        def reason_for(node: NodeId, packet: Packet) -> DropReason:
            if reach is not None and not reach.reachable(
                node, packet.dest, packet.yx_first
            ):
                return DropReason.UNREACHABLE
            return DropReason.UNDELIVERED

        for node, source in self.sources.items():
            for packet in list(source.queue):
                self.network.drop_packet(packet, cycle, reason_for(node, packet))
            source.queue.clear()
            if source.current:
                packet = source.current[0].packet
                self.network.drop_packet(packet, cycle, reason_for(node, packet))
                source.current = None
                source.vc = None
        # Anything still threaded through the network.
        for node, router in self.network.routers.items():
            for vc in router.all_vcs():
                while vc.queue:
                    flit = vc.queue[0]
                    if flit.packet.dropped_cycle is None:
                        self.network.drop_packet(
                            flit.packet, cycle, reason_for(node, flit.packet)
                        )
                    else:
                        vc.discard_front()
        self._outstanding = 0

    # ------------------------------------------------------------------

    def _build_result(self, cycles: int) -> SimulationResult:
        stats = self.network.stats
        model = EnergyModel(self.config.router, self.config.num_nodes)
        energy = model.report(
            stats.activity, stats.measured_cycles, stats.delivered_packets
        )
        return SimulationResult(
            config=self.config,
            average_latency=stats.average_latency,
            latency=LatencySummary.from_samples(stats.latencies),
            average_hops=stats.average_hops,
            injected_packets=stats.injected_packets,
            delivered_packets=stats.delivered_packets,
            dropped_packets=stats.dropped_packets,
            completion_probability=stats.completion_probability,
            throughput=stats.throughput_flits_per_node_cycle,
            cycles=cycles,
            energy=energy,
            contention_row=stats.contention.row_probability,
            contention_column=stats.contention.column_probability,
            contention_overall=stats.contention.overall_probability,
            faults=self.faults,
            scheduler=stats.scheduler,
            generated_packets=self._generated,
            total_delivered=stats.total_delivered,
            total_dropped=stats.total_dropped,
            drops_by_reason={
                reason.value: count
                for reason, count in sorted(
                    stats.drops_by_reason.items(), key=lambda kv: kv[0].value
                )
            },
        )


def run_simulation(
    config: SimulationConfig,
    traffic: TrafficPattern | None = None,
    faults: list[ComponentFault] | None = None,
    *,
    schedule: FaultSchedule | None = None,
    full_sweep: bool = False,
) -> SimulationResult:
    """Convenience one-call entry point: build, run, return the result.

    ``faults`` are applied statically before the run; ``schedule``
    delivers runtime fault events to the live network mid-run (the two
    compose).  ``full_sweep=True`` disables activity-driven scheduling
    and steps every router every cycle — slower, but useful for
    differential validation of the active-set scheduler.

    ``config.backend`` selects the execution engine: ``"object"`` runs
    this module's reference :class:`Simulator`; ``"soa"`` dispatches to
    the struct-of-arrays fast path (:mod:`repro.core.soa`), which is
    bit-identical on its supported envelope and raises
    ``BackendUnsupportedError`` outside it (see docs/vectorized-core.md).
    """
    if config.shards is not None and config.shards != (1, 1):
        from repro.harness.sharded import run_sharded_simulation

        return run_sharded_simulation(
            config,
            traffic=traffic,
            faults=faults,
            schedule=schedule,
            full_sweep=full_sweep,
        )
    if config.backend != "object":
        from repro.core.soa.engine import run_soa_simulation

        return run_soa_simulation(
            config,
            traffic=traffic,
            faults=faults,
            schedule=schedule,
            full_sweep=full_sweep,
        )
    return Simulator(
        config,
        traffic=traffic,
        faults=faults,
        schedule=schedule,
        full_sweep=full_sweep,
    ).run()
