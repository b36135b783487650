"""Inter-router flit links.

Link propagation takes a single clock cycle (Section 5.1 of the paper).
Combined with the one-cycle switch traversal stage, a payload launched
during cycle ``c`` becomes visible to the receiving router at cycle
``c + 2`` — i.e. the receiver can include it in its *allocation* phase two
cycles after the sender's ST stage, giving the canonical 3-cycle per-hop
latency of a two-stage router with single-cycle links.
"""

from __future__ import annotations

from typing import Generic, TypeVar

T = TypeVar("T")

#: Cycles between a payload being launched (during switch traversal) and it
#: being usable at the receiver: 1 for the ST cycle itself + 1 on the wire.
LINK_DELAY = 2


class Channel(Generic[T]):
    """A point-to-point wire with fixed delay and unit per-cycle bandwidth.

    One payload may be launched per cycle (a link is one flit wide).
    """

    __slots__ = ("delay", "_in_flight", "sends")

    def __init__(self, delay: int = LINK_DELAY) -> None:
        self.delay = delay
        self._in_flight: list[tuple[int, T]] = []
        #: Lifetime payload count; instrumentation reads this to compute
        #: per-link utilisation without touching the hot path.
        self.sends = 0

    def send(self, payload: T, cycle: int) -> None:
        """Launch ``payload`` during ``cycle``; it arrives at cycle + delay."""
        arrival = cycle + self.delay
        if self._in_flight and self._in_flight[-1][0] >= arrival:
            raise RuntimeError(
                "link bandwidth exceeded: two flits launched in one cycle"
            )
        self._in_flight.append((arrival, payload))
        self.sends += 1

    def deliver(self, cycle: int) -> list[T]:
        """Pop every payload whose arrival time is ``<= cycle``."""
        arrived: list[T] = []
        while self._in_flight and self._in_flight[0][0] <= cycle:
            arrived.append(self._in_flight.pop(0)[1])
        return arrived

    @property
    def busy(self) -> bool:
        """Payloads still on the wire — the receiver must stay awake."""
        return bool(self._in_flight)

    def pending(self) -> list[T]:
        """Snapshot of payloads still on the wire (runtime fault scans)."""
        return [payload for _, payload in self._in_flight]

    def __len__(self) -> int:
        return len(self._in_flight)
