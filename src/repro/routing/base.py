"""Routing-algorithm interface.

A routing algorithm answers one question: *given a packet sitting at a
node, which output directions make progress?*  It returns the minimal
productive directions as candidates; the router (or its look-ahead logic)
selects one, using its local congestion view and fault knowledge.  The
``escape_direction`` — always the dimension-ordered XY choice — is what
escape/deadlock-free VC classes are restricted to (Duato's protocol, which
the paper's extra ``dx``/``txy`` VCs implement structurally).
"""

from __future__ import annotations

import abc

from repro.core.types import (
    EAST,
    LOCAL,
    NORTH,
    SOUTH,
    WEST,
    Direction,
    NodeId,
    Packet,
    RoutingMode,
)


class RoutingAlgorithm(abc.ABC):
    """Strategy object for computing productive output directions."""

    mode: RoutingMode
    #: Injected by the network; None or a mesh keeps the plain
    #: coordinate comparisons, a torus switches to ring-minimal steps.
    topology = None

    @abc.abstractmethod
    def candidates(self, node: NodeId, packet: Packet) -> tuple[Direction, ...]:
        """Minimal productive directions for ``packet`` at ``node``.

        Returns ``(Direction.LOCAL,)`` when the packet has arrived.  The
        order expresses the algorithm's own preference; routers may
        reorder based on congestion when more than one is offered.
        """

    def escape_direction(self, node: NodeId, packet: Packet) -> Direction:
        """The deadlock-free dimension-ordered (XY) direction."""
        return self.dor_direction(node, packet.dest)

    def dor_direction(self, node: NodeId, dest: NodeId) -> Direction:
        """Topology-aware dimension-ordered (X-first) step."""
        topology = self.topology
        if topology is None or topology.name != "torus":
            return xy_direction(node, dest)
        from repro.core.topology import ring_direction

        step = ring_direction(node.x, dest.x, topology.width, EAST, WEST)
        if step is not None:
            return step
        step = ring_direction(node.y, dest.y, topology.height, SOUTH, NORTH)
        return step if step is not None else LOCAL

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def xy_direction(node: NodeId, dest: NodeId) -> Direction:
    """Pure dimension-ordered choice: correct X first, then Y."""
    if dest.x > node.x:
        return EAST
    if dest.x < node.x:
        return WEST
    if dest.y > node.y:
        return SOUTH
    if dest.y < node.y:
        return NORTH
    return LOCAL


def yx_direction(node: NodeId, dest: NodeId) -> Direction:
    """Dimension-ordered choice with Y corrected first."""
    if dest.y > node.y:
        return SOUTH
    if dest.y < node.y:
        return NORTH
    if dest.x > node.x:
        return EAST
    if dest.x < node.x:
        return WEST
    return LOCAL


def productive_directions(node: NodeId, dest: NodeId) -> tuple[Direction, ...]:
    """Every direction that reduces the Manhattan distance to ``dest``."""
    dirs: list[Direction] = []
    if dest.x > node.x:
        dirs.append(EAST)
    elif dest.x < node.x:
        dirs.append(WEST)
    if dest.y > node.y:
        dirs.append(SOUTH)
    elif dest.y < node.y:
        dirs.append(NORTH)
    if not dirs:
        return (LOCAL,)
    return tuple(dirs)


def direction_class(dx: int, dy: int) -> int:
    """Which way a destination ``(dx, dy)`` away lies, as one of nine ints.

    ``3 * (sign(dx) + 1) + sign(dy) + 1``: 4 is "arrived".  On a mesh
    the three functions above read the destination through these two
    signs and nothing else — as does everything a router derives from
    them (RoCo's ``_is_final`` is ``dy == 0`` / ``dx == 0``, early
    ejection is ``dest == node``) — so a table keyed by this class
    instead of by the destination node is exact, and nine entries deep
    (the SoA layout's routing tables, repro.core.soa.layout).  A torus
    compares ring distances and has no such summary.
    """
    return 3 * ((dx > 0) - (dx < 0)) + (dy > 0) - (dy < 0) + 4


def path_nodes_xy(src: NodeId, dest: NodeId) -> list[NodeId]:
    """Every node an XY-routed packet visits, inclusive of both endpoints."""
    nodes = [src]
    cur = src
    while cur.x != dest.x:
        cur = NodeId(cur.x + (1 if dest.x > cur.x else -1), cur.y)
        nodes.append(cur)
    while cur.y != dest.y:
        cur = NodeId(cur.x, cur.y + (1 if dest.y > cur.y else -1))
        nodes.append(cur)
    return nodes


def path_nodes_yx(src: NodeId, dest: NodeId) -> list[NodeId]:
    """Every node a YX-routed packet visits, inclusive of both endpoints."""
    nodes = [src]
    cur = src
    while cur.y != dest.y:
        cur = NodeId(cur.x, cur.y + (1 if dest.y > cur.y else -1))
        nodes.append(cur)
    while cur.x != dest.x:
        cur = NodeId(cur.x + (1 if dest.x > cur.x else -1), cur.y)
        nodes.append(cur)
    return nodes
