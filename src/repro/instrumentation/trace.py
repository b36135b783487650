"""Flit-level flight recorder.

When a :class:`FlightRecorder` is attached to a network, the routers
emit an event for every buffer entry, crossbar traversal and ejection.
The recorder reconstructs per-packet journeys — which routers a worm
visited, how long its head waited at each — turning "average latency
went up" into "heads queue 9 cycles at (3,2) for the East output".

Tracing is strictly opt-in: the hot path pays a single ``is not None``
check per event when no recorder is attached.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass

from repro.core.types import Flit, NodeId


class EventKind(enum.Enum):
    INJECT = "inject"
    BUFFER = "buffer"  # flit written into a VC
    TRAVERSE = "traverse"  # flit crossed a crossbar / left the router
    EJECT = "eject"  # flit consumed by the destination PE


@dataclass(frozen=True)
class TraceEvent:
    """One flit event."""

    cycle: int
    kind: EventKind
    packet_id: int
    flit_seq: int
    node: NodeId
    detail: str = ""


@dataclass
class HopTiming:
    """Derived per-hop head-flit timing at one router."""

    node: NodeId
    arrived: int
    departed: int

    @property
    def dwell(self) -> int:
        return self.departed - self.arrived


class FlightRecorder:
    """Collects trace events and reconstructs packet journeys."""

    def __init__(self, max_events: int = 1_000_000) -> None:
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        #: Events discarded once ``max_events`` was reached.  Non-zero
        #: means every reconstruction below may be missing the tail of the
        #: run — check :attr:`truncated` before trusting a journey.
        self.dropped_events = 0
        self._by_packet: dict[int, list[TraceEvent]] = defaultdict(list)

    @property
    def truncated(self) -> bool:
        """True when at least one event was discarded at the cap."""
        return self.dropped_events > 0

    # -- emission (called from the routers) -----------------------------

    def record(
        self,
        cycle: int,
        kind: EventKind,
        flit: Flit,
        node: NodeId,
        detail: str = "",
    ) -> None:
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        event = TraceEvent(cycle, kind, flit.packet.pid, flit.seq, node, detail)
        self.events.append(event)
        self._by_packet[event.packet_id].append(event)

    # -- reconstruction ---------------------------------------------------

    def packet_events(self, pid: int) -> list[TraceEvent]:
        return list(self._by_packet.get(pid, []))

    def journey(self, pid: int) -> list[NodeId]:
        """The routers the packet's head flit visited, in order."""
        path: list[NodeId] = []
        for event in self._by_packet.get(pid, []):
            if event.flit_seq != 0:
                continue
            if event.kind in (EventKind.INJECT, EventKind.BUFFER, EventKind.EJECT):
                if not path or path[-1] != event.node:
                    path.append(event.node)
        return path

    def hop_timings(self, pid: int) -> list[HopTiming]:
        """Head-flit dwell time at each visited router."""
        arrivals: dict[NodeId, int] = {}
        timings: list[HopTiming] = []
        for event in self._by_packet.get(pid, []):
            if event.flit_seq != 0:
                continue
            if event.kind in (EventKind.INJECT, EventKind.BUFFER):
                arrivals.setdefault(event.node, event.cycle)
            elif event.kind in (EventKind.TRAVERSE, EventKind.EJECT):
                if event.node in arrivals:
                    timings.append(
                        HopTiming(event.node, arrivals.pop(event.node), event.cycle)
                    )
        return timings

    def slowest_hops(self, count: int = 10) -> list[tuple[int, HopTiming]]:
        """The (packet, hop) pairs with the longest head dwell times."""
        ranked: list[tuple[int, HopTiming]] = []
        for pid in self._by_packet:
            for timing in self.hop_timings(pid):
                ranked.append((pid, timing))
        ranked.sort(key=lambda item: -item[1].dwell)
        return ranked[:count]

    def dwell_by_node(self) -> dict[NodeId, float]:
        """Average head dwell per router — a congestion heatmap input."""
        sums: dict[NodeId, list[int]] = defaultdict(list)
        for pid in self._by_packet:
            for timing in self.hop_timings(pid):
                sums[timing.node].append(timing.dwell)
        return {n: sum(v) / len(v) for n, v in sums.items()}

    def format_journey(self, pid: int) -> str:
        """Human-readable one-packet flight log.

        When the recorder hit its event cap the log ends with an explicit
        truncation note, so a partial trace cannot masquerade as the
        packet's complete flight.
        """
        lines = [f"packet {pid}:"]
        for event in self._by_packet.get(pid, []):
            lines.append(
                f"  c{event.cycle:>6} {event.kind.value:>8} flit {event.flit_seq}"
                f" @ {event.node} {event.detail}"
            )
        if self.truncated:
            lines.append(
                f"  [trace truncated: {self.dropped_events} event(s) dropped"
                f" past the {self.max_events}-event cap; journey may be"
                " incomplete]"
            )
        return "\n".join(lines)
