"""Deterministic dimension-order (XY) routing — the paper's DOR baseline."""

from __future__ import annotations

from repro.core.types import XY, Direction, NodeId, Packet
from repro.routing.base import RoutingAlgorithm


class XYRouting(RoutingAlgorithm):
    """Route fully in X, then fully in Y.

    Deadlock-free on a mesh without any VC discipline because it forbids
    the Y-to-X turns that close cyclic channel dependencies.
    """

    mode = XY

    def candidates(self, node: NodeId, packet: Packet) -> tuple[Direction, ...]:
        return (self.dor_direction(node, packet.dest),)
