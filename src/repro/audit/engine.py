"""The audit engine: per-cycle invariant checking for a live simulator.

Opt in via ``SimulationConfig(audit=True)`` (or ``python -m repro
--audit``).  The engine rides the network's existing end-of-cycle observer
hook (``Network.on_cycle_stepped``): at :meth:`attach` time it chains
any observer already installed — instrumentation probes, scheduler
tests, deliberate corruption fixtures — calling it *first* so the audit
always sees the cycle's final state, then builds one
:class:`NetworkSnapshot` and runs every checker over it.

When auditing is off the simulator constructs no engine and the hot
path pays nothing beyond the pre-existing ``is not None`` checks.  When
on, a :class:`~repro.instrumentation.trace.FlightRecorder` is attached
(if the caller did not bring one) so a violation can quote the
implicated packet's journey.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.audit.invariants import (
    InvariantChecker,
    InvariantViolation,
    default_checkers,
)
from repro.core.types import NodeId, Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.simulator import Simulator

#: Event cap for the engine's own FlightRecorder.  Large enough to hold
#: the tail of any shrunken job; the recorder's ``truncated``
#: flag marks longer runs honestly.
AUDIT_TRACE_EVENTS = 250_000


@dataclass
class NetworkSnapshot:
    """Where every flit is at the end of one audited cycle.

    ``locations`` maps ``(pid, seq)`` to the node holding the flit —
    VC-buffered flits at their router, wire flits at the *sending*
    router (they left it this or last cycle), source-side flits at
    their source node.  ``queue_flits`` counts only VC-buffered flits
    per packet (drop purging must empty those); ``flit_counts`` counts
    everything.  ``source_queued`` holds packets still waiting at their
    PE, whose flits do not exist yet.
    """

    cycle: int
    locations: dict[tuple[int, int], NodeId] = field(default_factory=dict)
    flit_counts: dict[int, int] = field(default_factory=dict)
    queue_flits: dict[int, int] = field(default_factory=dict)
    packets: dict[int, Packet] = field(default_factory=dict)
    source_queued: set[int] = field(default_factory=set)


class AuditEngine:
    """Runs the invariant battery at the end of every audited cycle."""

    def __init__(
        self,
        sim: "Simulator",
        checkers: list[InvariantChecker] | None = None,
        interval: int = 1,
    ) -> None:
        if interval < 1:
            raise ValueError("audit interval must be >= 1 cycles")
        self.sim = sim
        self.network = sim.network
        self.checkers = list(checkers) if checkers is not None else default_checkers()
        #: Audit every Nth cycle.  The flit-location continuity check
        #: needs back-to-back snapshots and self-gates at interval > 1.
        self.interval = interval
        self.cycles_audited = 0
        self.checks_run = 0
        #: Previous cycle's snapshot, for the location continuity check.
        self.prev_snapshot: NetworkSnapshot | None = None
        self._chained = None
        self._attached = False
        self._own_trace = False

    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Hook into the network; idempotent.

        Called by ``Simulator.run`` so that observers installed between
        simulator construction and the run (probes, test fixtures) are
        chained rather than rejected: the audit wraps whatever is there,
        invokes it first, then checks the same cycle's final state.
        """
        if self._attached:
            return
        network = self.network
        self._chained = network.on_cycle_stepped
        network.on_cycle_stepped = self._on_cycle_stepped
        if network.trace is None:
            from repro.instrumentation.trace import FlightRecorder

            network.trace = FlightRecorder(max_events=AUDIT_TRACE_EVENTS)
            self._own_trace = True
        for checker in self.checkers:
            checker.on_attach(self)
        self._attached = True

    def teardown(self) -> None:
        """Let go of the audited run (Simulator.teardown): the allocator
        proxies a checker installs in its routers point back here."""
        self.sim = self.network = self._chained = None

    def _on_cycle_stepped(self, cycle: int, stepped) -> None:
        if self._chained is not None:
            self._chained(cycle, stepped)
        if cycle % self.interval == 0:
            self.run_checks(cycle)

    def run_checks(self, cycle: int) -> None:
        """Snapshot the network and run every checker over it."""
        snapshot = self._snapshot(cycle)
        for checker in self.checkers:
            checker.check(self, snapshot, cycle)
            self.checks_run += 1
        self.prev_snapshot = snapshot
        self.cycles_audited += 1

    def final_check(self, cycle: int) -> None:
        """End-of-run conservation: nothing may remain outstanding.

        Runs after the simulator classified and dropped every survivor,
        so the packet ledger must balance exactly.
        """
        sim = self.sim
        stats = self.network.stats
        if sim.outstanding != 0:
            self.fail(
                "conservation",
                cycle,
                f"{sim.outstanding} packet(s) still outstanding after "
                "end-of-run survivor accounting",
            )
        booked = stats.total_delivered + stats.total_dropped
        if sim.generated != booked:
            self.fail(
                "conservation",
                cycle,
                f"{sim.generated} packets generated but only "
                f"{stats.total_delivered} delivered + {stats.total_dropped} "
                "dropped at end of run",
            )
        by_reason = sum(stats.drops_by_reason.values())
        if by_reason != stats.total_dropped:
            self.fail(
                "conservation",
                cycle,
                f"drop reasons account for {by_reason} packet(s) but "
                f"{stats.total_dropped} were dropped",
            )

    # ------------------------------------------------------------------

    def fail(
        self,
        invariant: str,
        cycle: int,
        message: str,
        node: NodeId | None = None,
        pid: int | None = None,
    ) -> None:
        """Raise a structured violation, quoting the packet's journey."""
        excerpt = ""
        trace = self.network.trace
        if trace is not None and pid is not None:
            excerpt = trace.format_journey(pid)
        raise InvariantViolation(
            invariant, cycle, message, node=node, pid=pid, excerpt=excerpt
        )

    # ------------------------------------------------------------------

    def _snapshot(self, cycle: int) -> NetworkSnapshot:
        snap = NetworkSnapshot(cycle)
        locations = snap.locations
        flit_counts = snap.flit_counts
        packets = snap.packets

        def note(flit, node: NodeId, in_queue: bool) -> None:
            packet = flit.packet
            key = (packet.pid, flit.seq)
            if key in locations:
                self.fail(
                    "location",
                    cycle,
                    f"flit seq {flit.seq} exists both at {locations[key]} "
                    f"and {node} (duplicated flit)",
                    node=node,
                    pid=packet.pid,
                )
            locations[key] = node
            packets[packet.pid] = packet
            flit_counts[packet.pid] = flit_counts.get(packet.pid, 0) + 1
            if in_queue:
                snap.queue_flits[packet.pid] = (
                    snap.queue_flits.get(packet.pid, 0) + 1
                )

        for node, router in self.network.routers.items():
            for vc in router.all_vcs():
                for flit in vc.queue:
                    note(flit, node, in_queue=True)
            # Each inter-router link is owned by exactly one upstream
            # output port, so walking outputs visits every wire once;
            # in-flight flits are attributed to the sender.
            for port in router.outputs.values():
                for flit in port.link.pending():
                    note(flit, node, in_queue=False)
        for node, source in self.sim.sources.items():
            if source.current:
                for flit in source.current:
                    note(flit, node, in_queue=False)
            for packet in source.queue:
                snap.source_queued.add(packet.pid)
                packets[packet.pid] = packet
        return snap
