"""Flit-level flight recorder.

When a :class:`FlightRecorder` is attached to a network, the routers
emit an event for every buffer entry, crossbar traversal and ejection.
The recorder keeps them per packet, so :meth:`FlightRecorder.format_journey`
prints one packet's flight log — the excerpt an audit violation
carries (:mod:`repro.audit.engine`).

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


class FlightRecorder:
    """Collects trace events and prints per-packet flight logs."""

    def __init__(self, max_events: int = 1_000_000) -> None:
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        #: Events discarded once ``max_events`` was reached.  Non-zero
        #: means a flight log may be missing the tail of the run —
        #: :meth:`format_journey` says so.
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
