"""Simulation statistics: latency, throughput, completion, activity.

The collector distinguishes a *warm-up* phase from the *measurement* phase
exactly like the paper (Section 5.4): only packets created after warm-up
contribute to latency and completion statistics, but activity counters for
the energy model run over the measurement window of cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.core.types import DropReason, Packet


@dataclass
class ActivityCounters:
    """Per-network component activity, consumed by the energy model.

    Each field counts events whose energy cost the profile defines:
    buffer writes/reads (per flit), crossbar traversals (per flit),
    VA allocation attempts, SA arbitration requests, link flit
    traversals and early ejections.
    """

    buffer_writes: int = 0
    buffer_reads: int = 0
    crossbar_traversals: int = 0
    va_requests: int = 0
    sa_requests: int = 0
    link_flits: int = 0
    early_ejections: int = 0

    def merged(self, other: "ActivityCounters") -> "ActivityCounters":
        total = replace(self)
        _add_fields(total, other)
        return total


@dataclass
class SchedulerCounters:
    """Activity-driven scheduler bookkeeping (see docs/activity-scheduling.md).

    ``router_steps`` counts routers actually advanced through the
    pipeline phases; ``router_slots`` counts the router-cycles a full
    sweep would have spent (``num_routers x cycles``).  Their ratio is
    the scheduler's *duty cycle* — the fraction of per-router work the
    active-set scheduler could not avoid.  Under ``full_sweep=True``
    the two counters are equal by construction.
    """

    cycles: int = 0
    router_steps: int = 0
    router_slots: int = 0
    wakeups: int = 0
    sleeps: int = 0
    full_sweep: bool = False

    @property
    def duty_cycle(self) -> float:
        """Stepped router-cycles / available router-cycles, in [0, 1]."""
        if not self.router_slots:
            return 0.0
        return self.router_steps / self.router_slots

    @property
    def skipped_router_cycles(self) -> int:
        """Router-cycles the active-set scheduler never had to run."""
        return self.router_slots - self.router_steps


@dataclass
class ContentionCounters:
    """Crossbar-input contention bookkeeping for Figure 3.

    A request *contends* when, in the same cycle, another input requests
    the same output port.  Row/column classification follows the paper:
    requests issued by East/West inputs are row requests, North/South are
    column requests.
    """

    row_requests: int = 0
    row_contended: int = 0
    column_requests: int = 0
    column_contended: int = 0

    @property
    def row_probability(self) -> float:
        return self.row_contended / self.row_requests if self.row_requests else 0.0

    @property
    def column_probability(self) -> float:
        return (
            self.column_contended / self.column_requests
            if self.column_requests
            else 0.0
        )

    @property
    def overall_probability(self) -> float:
        total = self.row_requests + self.column_requests
        if not total:
            return 0.0
        return (self.row_contended + self.column_contended) / total


def _add_fields(into, other) -> None:
    """Add every field of counter dataclass ``other`` onto ``into``."""
    for f in fields(into):
        setattr(into, f.name, getattr(into, f.name) + getattr(other, f.name))


#: StatsCollector's plain event counters (summed by ``merge``).
_EVENT_COUNTERS = (
    "injected_packets",
    "delivered_packets",
    "dropped_packets",
    "delivered_flits",
    "total_delivered",
    "total_dropped",
)


class StatsCollector:
    """Aggregates everything a run reports.

    ``measuring`` is toggled by the simulator once warm-up completes;
    packet-level statistics only count measured packets (those created
    while ``measuring`` is True).
    """

    def __init__(self, num_nodes: int = 1) -> None:
        self.num_nodes = num_nodes
        self.measuring = False
        self.measure_start_cycle: int | None = None
        self.latencies: list[int] = []
        self.hops: list[int] = []
        self.injected_packets = 0
        self.delivered_packets = 0
        self.dropped_packets = 0
        self.delivered_flits = 0
        #: Conservation totals over *all* packets (warm-up included), so
        #: generated == total_delivered + total_dropped + in-flight holds
        #: regardless of the measurement window.
        self.total_delivered = 0
        self.total_dropped = 0
        self.drops_by_reason: dict[DropReason, int] = {}
        self.activity = ActivityCounters()
        self.contention = ContentionCounters()
        self.scheduler = SchedulerCounters()
        self.measured_cycles = 0

    @classmethod
    def merge(cls, parts: "list[StatsCollector]") -> "StatsCollector":
        """One collector for a run whose events were split over ``parts``.

        Each part (a tile of a sharded run) saw every cycle but only its
        own share of the events: event counters are summed and samples
        concatenated in part order; what every part counted for itself
        (``measured_cycles``, scheduler ``cycles``) is taken as a max.
        """
        merged = cls(num_nodes=parts[0].num_nodes)
        merged.measuring = any(part.measuring for part in parts)
        merged.measure_start_cycle = min(
            (p.measure_start_cycle for p in parts if p.measuring), default=None
        )
        merged.measured_cycles = max(part.measured_cycles for part in parts)
        for part in parts:
            merged.latencies.extend(part.latencies)
            merged.hops.extend(part.hops)
            for name in _EVENT_COUNTERS:
                setattr(merged, name, getattr(merged, name) + getattr(part, name))
            for reason, count in part.drops_by_reason.items():
                merged.drops_by_reason[reason] = (
                    merged.drops_by_reason.get(reason, 0) + count
                )
            merged.activity = merged.activity.merged(part.activity)
            _add_fields(merged.contention, part.contention)
            _add_fields(merged.scheduler, part.scheduler)
        merged.scheduler.cycles = max(part.scheduler.cycles for part in parts)
        merged.scheduler.full_sweep = parts[0].scheduler.full_sweep
        return merged

    # -- phase control ----------------------------------------------------

    def start_measurement(self, cycle: int) -> None:
        self.measuring = True
        self.measure_start_cycle = cycle

    def tick(self) -> None:
        if self.measuring:
            self.measured_cycles += 1

    # -- packet events ----------------------------------------------------

    def packet_created(self, packet: Packet) -> bool:
        """Record a new packet; returns True when it is a measured packet."""
        if self.measuring:
            self.injected_packets += 1
            return True
        return False

    def packet_delivered(
        self, packet: Packet, measured: bool, hops: int | None = None
    ) -> None:
        self.total_delivered += 1
        if measured:
            self.delivered_packets += 1
            self.latencies.append(packet.latency)
            if hops is None:
                # Fall back to the traversals counted on the packet, not
                # the Manhattan distance — a detoured or wrap-routed
                # packet's real hop count differs from |dx| + |dy|.
                hops = packet.hops
            self.hops.append(hops)

    def packet_dropped(
        self, packet: Packet, measured: bool, reason: DropReason | None = None
    ) -> None:
        if reason is None:
            reason = packet.drop_reason or DropReason.UNSPECIFIED
        self.total_dropped += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        if measured:
            self.dropped_packets += 1

    def flit_delivered(self, measured: bool) -> None:
        if measured:
            self.delivered_flits += 1

    # -- derived metrics --------------------------------------------------

    @property
    def average_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def average_hops(self) -> float:
        return sum(self.hops) / len(self.hops) if self.hops else 0.0

    @property
    def measurement_started(self) -> bool:
        """Whether any packet was injected during the measurement phase.

        False means every packet-level metric below is vacuous — e.g. the
        run ended before warm-up completed — and must not be read as a
        perfect result.
        """
        return self.injected_packets > 0

    @property
    def completion_probability(self) -> float:
        """Received / injected — the paper's fault-tolerance metric.

        With zero injected packets nothing was proven delivered, so this
        reports 0.0 (fail-safe) rather than a vacuous perfect 1.0;
        :attr:`measurement_started` distinguishes "no traffic measured"
        from "all measured traffic lost".
        """
        if not self.injected_packets:
            return 0.0
        return self.delivered_packets / self.injected_packets

    @property
    def throughput_flits_per_node_cycle(self) -> float:
        """Accepted traffic rate over the measurement window."""
        if not self.measured_cycles:
            return 0.0
        return self.delivered_flits / self.measured_cycles / max(1, self.num_nodes)

    def summary(self) -> dict:
        """Plain-dict snapshot used by the harness and reports.

        ``measurement_started`` makes the zero-injected case explicit:
        when False, the packet-level entries describe an empty sample.
        """
        return {
            "average_latency": self.average_latency,
            "average_hops": self.average_hops,
            "injected_packets": self.injected_packets,
            "delivered_packets": self.delivered_packets,
            "dropped_packets": self.dropped_packets,
            "completion_probability": self.completion_probability,
            "measured_cycles": self.measured_cycles,
            "measurement_started": self.measurement_started,
        }
