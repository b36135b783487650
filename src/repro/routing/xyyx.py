"""Oblivious XY-YX routing.

Each packet commits at injection time to either XY or YX dimension order
(the ``Packet.yx_first`` flag).  Deadlock freedom needs the two orders to
use disjoint VC classes, which the routers provide (the paper adds two
``dx`` VCs for exactly this, Section 3.1).

Variant selection is normally an unbiased coin flip.  In a faulty network
the selection becomes fault-aware: if exactly one variant's path avoids
every known-dead node, that variant is chosen — the "alternate paths for
all three architectures" behaviour the paper relies on in Section 5.4.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro.core.types import XY_YX, Direction, NodeId, Packet
from repro.routing.base import (
    RoutingAlgorithm,
    path_nodes_xy,
    path_nodes_yx,
    xy_direction,
    yx_direction,
)


class XYYXRouting(RoutingAlgorithm):
    """Per-packet oblivious choice between XY and YX dimension order."""

    mode = XY_YX

    def candidates(self, node: NodeId, packet: Packet) -> tuple[Direction, ...]:
        if packet.yx_first:
            return (yx_direction(node, packet.dest),)
        return (xy_direction(node, packet.dest),)


def choose_variant(
    src: NodeId,
    dest: NodeId,
    rng: random.Random,
    is_node_blocked: Callable[[NodeId], bool] | None = None,
) -> bool:
    """Pick the dimension order for a new packet; returns ``yx_first``.

    Without fault knowledge this is a fair coin.  With it, a variant whose
    path crosses a blocked node is avoided when the other variant is
    clean; if both paths are blocked (or both clean) the coin decides.
    """
    if is_node_blocked is not None:
        xy_blocked = any(is_node_blocked(n) for n in path_nodes_xy(src, dest)[1:])
        yx_blocked = any(is_node_blocked(n) for n in path_nodes_yx(src, dest)[1:])
        if xy_blocked != yx_blocked:
            return xy_blocked
    return rng.random() < 0.5
