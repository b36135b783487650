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
from repro.core.runloop import (  # noqa: F401  (errors re-exported)
    DeadlockError,
    DrainTimeoutError,
    StrandedCensus,
    drive,
    live_packets,
    packet_draws,
)
from repro.core.statistics import SchedulerCounters, StatsCollector
from repro.core.types import (
    DropReason,
    Flit,
    NodeId,
    Packet,
    make_packet_flits,
)
from repro.energy.model import EnergyModel, EnergyReport
from repro.faults.injector import ComponentFault
from repro.faults.runtime import RuntimeFaultEngine
from repro.faults.schedule import FaultSchedule
from repro.metrics.latency import LatencySummary
from repro.metrics.pef import pef
from repro.traffic import make_traffic


class Source:
    """Per-node packet source: a generation queue feeding the PE port."""

    __slots__ = ("node", "router", "queue", "current", "vc")

    def __init__(self, node: NodeId, router) -> None:
        self.node = node
        self.router = router
        #: Generated packets waiting to start injection: unbounded under
        #: saturation, so a deque.
        self.queue: deque[Packet] = deque()
        #: Flits of the packet currently being streamed into its VC: one
        #: worm, so a list.
        self.current: list[Flit] | None = None
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
        del self.current[0]
        self.vc.reserve_slot(cycle)
        self.vc.push(flit)
        # Source injection is one of the two wake events of an empty
        # router (the other is an inbound link launch), and it ends a
        # nap: the router must allocate for this flit in the current
        # cycle, exactly as under a full sweep.
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
        self.current = flits
        self.vc = vc


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

    @staticmethod
    def from_stats(
        config: SimulationConfig,
        stats: StatsCollector,
        *,
        cycles: int,
        generated: int,
        faults: list[ComponentFault] = (),
    ) -> "SimulationResult":
        """The result of a finished run: every engine's last call, so
        energy, percentiles and the drop table are derived one way."""
        model = EnergyModel(config.router, config.num_nodes)
        energy = model.report(
            stats.activity, stats.measured_cycles, stats.delivered_packets
        )
        return SimulationResult(
            config=config,
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
            faults=list(faults),
            scheduler=stats.scheduler,
            generated_packets=generated,
            total_delivered=stats.total_delivered,
            total_dropped=stats.total_dropped,
            drops_by_reason={
                reason.value: count
                for reason, count in sorted(
                    stats.drops_by_reason.items(), key=lambda kv: kv[0].value
                )
            },
        )

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
        faults: list[ComponentFault] | None = None,
        *,
        schedule: FaultSchedule | None = None,
        full_sweep: bool = False,
    ) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.network = Network(config, full_sweep=full_sweep)
        self.traffic = make_traffic(config.traffic)
        self.traffic.bind(config, self.rng, self.network.nodes)
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
        #: pid -> live Packet, so runtime eviction can resolve VC
        #: ownership claims; maintained only when a schedule exists.
        self._packet_registry: dict[int, Packet] | None = (
            {} if self.schedule is not None else None
        )
        #: Strike cycles that killed a node or module, in order: the
        #: steps of the degradation staircase (ResilienceProbe).
        self.topology_changes: list[int] = []
        #: Static faults strike here, as permanent faults at cycle 0, on
        #: the engine that later strikes and heals the schedule's events.
        self.faults: list[ComponentFault] = []
        self._fault_engine: RuntimeFaultEngine | None = None
        if faults or self.schedule is not None:
            self.network.keep_purge_record()
            registry = self._packet_registry
            self._fault_engine = RuntimeFaultEngine(
                self.network, registry.get if registry is not None else None
            )
            for fault in faults or ():
                self._strike(fault, 0)
        #: Nodes able to inject, in node order; read by the draw
        #: generator every cycle, so refreshed in place.
        self._gen_nodes: list[NodeId] = []
        self._refresh_gen_nodes()
        self._draws = packet_draws(
            config, self.traffic, self.rng, self._gen_nodes, self._variant_health
        )
        self._source_list = list(self.sources.values())
        self._generated = 0
        self._outstanding = 0
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

    @property
    def moves(self) -> int:
        """Flit movements so far (the no-progress watchdog's signal)."""
        activity = self.network.stats.activity
        return activity.crossbar_traversals + activity.buffer_writes

    @property
    def has_faults(self) -> bool:
        return self.network.has_faults

    def _refresh_gen_nodes(self) -> None:
        """(Re)compute the nodes able to inject, in node order.

        Without a runtime schedule fault state is permanent once applied,
        so this is computed exactly once; the runtime fault engine calls
        it again after every event batch, keeping the rng-draw sequence
        identical to filtering inline each cycle.
        """
        self._gen_nodes[:] = [
            node
            for node, source in self.sources.items()
            if source.router.accepting_any_injection()
        ]

    def _variant_health(self):
        """Node-health predicate for XY-YX variant choice, if faulty."""
        return self.network.node_blocked if self.network.has_faults else None

    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        """One whole cycle: fault events, generation, injection, network.

        Step cycles consecutively from 0: generation follows the draw
        generator's own clock (:meth:`_generate` checks).
        """
        if self._pending_events or self._expiries:
            self._process_fault_events(cycle)
        if self._generated < self.config.total_packets:
            self._generate(cycle)
        for source in self._source_list:
            # Inlined idle filter: inject() on a source with nothing
            # queued and no worm in flight is a no-op.
            if source.queue or source.current:
                source.inject(self.network, cycle)
        self.network.step(cycle)

    def run(self, progress=None, progress_every: int = 5000) -> SimulationResult:
        """Simulate to completion and return the result record.

        ``progress(cycle, generated, outstanding)`` is invoked every
        ``progress_every`` cycles — useful for paper-scale runs where a
        pure-Python simulation takes minutes.  The reported counts are
        *post-step* values: they reflect generation, injection, delivery
        and drops up to and including ``cycle``.
        """
        if self.audit is not None:
            self.audit.attach()
        cycle = drive(self, progress, progress_every)
        self.network.settle(cycle)
        self._drop_survivors(cycle)
        if self.audit is not None:
            self.audit.final_check(cycle)
        return SimulationResult.from_stats(
            self.config,
            self.network.stats,
            cycles=cycle + 1,
            generated=self._generated,
            faults=self.faults,
        )

    def teardown(self) -> None:
        """Break the cycles that keep a finished run alive.

        For the owner of a run that nothing inspects afterwards
        (:func:`run_simulation`, :func:`~repro.harness.campaign.run_campaign`):
        the network's graph and callbacks, the draw generator (its frame
        holds :meth:`_variant_health`), the audit engine and the packet
        listeners (a probe names the simulator it listens to) all point
        back here.  The result does not depend on any of them.
        """
        self.network.teardown()
        self._draws = None
        self.delivery_listeners.clear()
        self.drop_listeners.clear()
        if self.audit is not None:
            self.audit.teardown()

    # ------------------------------------------------------------------
    # Runtime fault campaign
    # ------------------------------------------------------------------

    def _strike(self, fault: ComponentFault, cycle: int) -> None:
        """Strike ``fault`` through the engine and record it."""
        if self._fault_engine.apply(fault, cycle):
            self.topology_changes.append(cycle)
        self.faults.append(fault)

    def _process_fault_events(self, cycle: int) -> None:
        """Heal due transients and strike due events, in schedule order.

        Runs at the top of the cycle — before generation and injection —
        so a schedule firing entirely at cycle 0 produces exactly the
        state the same faults given as static faults start from.
        """
        engine = self._fault_engine
        touched = False
        while self._expiries and self._expiries[0][0] <= cycle:
            _, _, fault = heapq.heappop(self._expiries)
            engine.clear(fault, cycle)
            touched = True
        while self._pending_events and self._pending_events[0].cycle <= cycle:
            event = self._pending_events.popleft()
            self._strike(event.fault, cycle)
            if event.duration is not None:
                self._expiry_seq += 1
                heapq.heappush(
                    self._expiries,
                    (cycle + event.duration, self._expiry_seq, event.fault),
                )
            touched = True
        if touched:
            self._refresh_gen_nodes()

    def _stranded(self, node: NodeId, packet: Packet) -> bool:
        """Whether no live routing path from ``node`` to the packet's
        destination remains (always False on a healthy mesh)."""
        network = self.network
        return network.has_faults and not network.reachability.reachable(
            node, packet.dest, packet.yx_first
        )

    def stranded_census(self, cycle: int) -> StrandedCensus:
        """Census of outstanding traffic (drain-timeout diagnostics)."""
        held = list(live_packets(self.sources, self.network.routers))
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
        return StrandedCensus.of(
            self._outstanding,
            cycle,
            [(node, packet.created_cycle) for node, packet in held],
            dead_modules,
            sum(self._stranded(node, packet) for node, packet in held),
        )

    # ------------------------------------------------------------------

    def _generate(self, cycle: int) -> None:
        """Queue this cycle's drawn packets at their sources."""
        drawn_cycle, packets = next(self._draws, (None, ()))
        if drawn_cycle != cycle:
            raise ValueError(
                f"step({cycle}) out of order: traffic generation is at cycle "
                f"{drawn_cycle} (cycles must be stepped consecutively from 0)"
            )
        stats = self.network.stats
        for packet in packets:
            if packet.measured and not stats.measuring:
                stats.start_measurement(cycle)
            packet.measured = stats.packet_created(packet)
            if self._packet_registry is not None:
                self._packet_registry[packet.pid] = packet
            self.sources[packet.src].queue.append(packet)
        self._generated += len(packets)
        self._outstanding += len(packets)

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
        routers = self.network.routers
        for node, packet in live_packets(self.sources, routers):
            stranded = self._stranded(node, packet)
            self.network.drop_packet(
                packet,
                cycle,
                DropReason.UNREACHABLE if stranded else DropReason.UNDELIVERED,
            )
        for source in self._source_list:
            source.queue.clear()
            source.current = None
            source.vc = None
        # Late flits of packets dropped mid-run can still sit in a queue.
        for router in routers.values():
            for vc in router.all_vcs():
                while vc.queue:
                    vc.discard_front()
        self._outstanding = 0


def run_simulation(
    config: SimulationConfig,
    faults: list[ComponentFault] | None = None,
    *,
    schedule: FaultSchedule | None = None,
    full_sweep: bool = False,
) -> SimulationResult:
    """Convenience one-call entry point: build, run, return the result.

    ``faults`` strike as permanent faults at cycle 0; ``schedule``
    delivers runtime fault events to the live network mid-run (the two
    compose, on one fault engine).  ``full_sweep=True`` disables
    activity-driven scheduling and steps every router every cycle —
    slower, but useful for differential validation of the active-set
    scheduler.

    ``config.backend`` selects the execution engine: ``"object"`` runs
    this module's reference :class:`Simulator`; ``"soa"`` dispatches to
    the struct-of-arrays fast path (:mod:`repro.core.soa`), which is
    bit-identical on its supported envelope and raises
    ``BackendUnsupportedError`` outside it (see docs/vectorized-core.md).
    ``config.shards`` other than ``(1, 1)`` steps the mesh as tiles
    (:mod:`repro.harness.sharded`), on the active scheduler only.
    """
    if config.shards is not None and config.shards != (1, 1):
        from repro.harness.sharded import (
            ShardUnsupportedError,
            run_sharded_simulation,
        )

        if full_sweep:
            raise ShardUnsupportedError(
                "full_sweep=True", "the object engine is the full-sweep reference"
            )
        return run_sharded_simulation(config, faults=faults, schedule=schedule)
    if config.backend != "object":
        from repro.core.soa.engine import run_soa_simulation

        return run_soa_simulation(
            config, faults=faults, schedule=schedule, full_sweep=full_sweep
        )
    sim = Simulator(config, faults=faults, schedule=schedule, full_sweep=full_sweep)
    try:
        return sim.run()
    finally:
        sim.teardown()
