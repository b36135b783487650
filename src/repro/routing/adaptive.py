"""Minimal adaptive routing.

Offers every productive (distance-reducing) direction as a candidate and
lets the router pick by congestion.  Deadlock freedom follows Duato's
protocol: each router reserves escape resources restricted to the XY
(dimension-ordered) direction — in the generic router this is VC 0 of each
port; in the RoCo router it is the structural role of the deadlock-free
``dx``/``txy`` VCs called out in Section 3.1 ("Deadlock Freedom").
"""

from __future__ import annotations

from repro.core.types import ADAPTIVE, Direction, NodeId, Packet
from repro.routing.base import (
    RoutingAlgorithm,
    productive_directions,
    xy_direction,
)


class AdaptiveRouting(RoutingAlgorithm):
    """Fully minimal adaptive routing with XY escape paths."""

    mode = ADAPTIVE

    def candidates(self, node: NodeId, packet: Packet) -> tuple[Direction, ...]:
        dirs = productive_directions(node, packet.dest)
        if len(dirs) <= 1:
            return dirs
        # Present the escape (XY) direction first so deterministic
        # tie-breaks still drain through the deadlock-free path.
        escape = xy_direction(node, packet.dest)
        ordered = [escape] + [d for d in dirs if d is not escape]
        return tuple(ordered)
