"""Resilience metrics for runtime fault campaigns.

A fault campaign asks different questions from a steady-state sweep:
not "what was the average latency?" but "what fraction of traffic
survived, where did the losses go, and how did service degrade as
faults accumulated?".  This module provides:

* :class:`PacketAccounting` — the conservation ledger (generated =
  delivered + dropped-by-reason) read off a finished
  :class:`~repro.core.simulator.SimulationResult`;
* :class:`ResilienceProbe` — a listener-based probe attached before
  ``run()`` that segments delivered fraction by the number of
  topology-affecting faults that had already struck when each packet
  was created.

Everything here observes via the simulator's delivery/drop listener
lists; nothing perturbs the simulation hot path.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.types import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.simulator import Simulator


@dataclass(frozen=True)
class PacketAccounting:
    """The end-of-run conservation ledger over *all* generated packets."""

    generated: int
    delivered: int
    dropped: int
    drops_by_reason: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_result(cls, result: "SimulationResult") -> "PacketAccounting":
        return cls(
            generated=result.generated_packets,
            delivered=result.total_delivered,
            dropped=result.total_dropped,
            drops_by_reason=dict(result.drops_by_reason),
        )

    @property
    def conserved(self) -> bool:
        """Every generated packet is accounted for exactly once."""
        return (
            self.generated == self.delivered + self.dropped
            and sum(self.drops_by_reason.values()) == self.dropped
        )

    @property
    def delivered_fraction(self) -> float:
        """Fraction of all generated packets that reached their PE."""
        if self.generated == 0:
            return 1.0
        return self.delivered / self.generated

    def describe(self) -> str:
        parts = [
            f"generated={self.generated}",
            f"delivered={self.delivered} ({self.delivered_fraction:.3f})",
            f"dropped={self.dropped}",
        ]
        if self.drops_by_reason:
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.drops_by_reason.items())
            )
            parts.append(f"by reason: {reasons}")
        return "; ".join(parts)


@dataclass
class FaultCountPoint:
    """Service quality for packets created under ``fault_count`` faults."""

    fault_count: int
    generated: int = 0
    delivered: int = 0

    @property
    def delivered_fraction(self) -> float:
        if self.generated == 0:
            return 1.0
        return self.delivered / self.generated


class ResilienceProbe:
    """Service-vs-fault-count view of one run.

    Attach before ``run()``::

        sim = Simulator(config, schedule=schedule)
        probe = ResilienceProbe(sim)
        result = sim.run()
        probe.delivered_by_fault_count()     # degradation staircase

    The fault-count segmentation keys each packet by how many strikes
    that killed a node or module (static ones at cycle 0 included) had
    fired *at or before* its creation cycle, so the staircase reads "of
    traffic injected while k nodes/modules were dead, what fraction
    still got through?".
    """

    def __init__(self, simulator: "Simulator") -> None:
        self.simulator = simulator
        #: The simulator's own list, appended in cycle order as strikes
        #: happen: a packet is keyed on the strikes before its creation.
        self._event_cycles: list[int] = simulator.topology_changes
        self._by_fault_count: dict[int, FaultCountPoint] = {}
        simulator.delivery_listeners.append(self._on_delivered)
        simulator.drop_listeners.append(self._on_dropped)

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------

    def _segment_for(self, packet: Packet) -> FaultCountPoint:
        count = bisect.bisect_right(self._event_cycles, packet.created_cycle)
        point = self._by_fault_count.get(count)
        if point is None:
            point = FaultCountPoint(fault_count=count)
            self._by_fault_count[count] = point
        return point

    def _on_delivered(self, packet: Packet) -> None:
        segment = self._segment_for(packet)
        segment.generated += 1
        segment.delivered += 1

    def _on_dropped(self, packet: Packet) -> None:
        self._segment_for(packet).generated += 1

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def delivered_by_fault_count(self) -> list[FaultCountPoint]:
        """Degradation staircase, ordered by cumulative fault count."""
        return [
            self._by_fault_count[count] for count in sorted(self._by_fault_count)
        ]
