"""Topology abstraction: 2D mesh and 2D torus.

The paper targets "regular topologies such as 2D mesh and torus"
(Section 1).  A topology answers two questions: which neighbour (if
any) lies in a given direction, and how traffic may route between two
nodes.  The mesh has open borders; the torus wraps both dimensions,
which halves the average hop count but closes ring cycles that wormhole
switching must break with *dateline* VC classes (see
:func:`torus_ring_class`).
"""

from __future__ import annotations

import abc

from repro.core.types import CARDINALS, Direction, NodeId

#: (topology class, width, height) -> :meth:`Topology.neighbors` table.
_NEIGHBOR_TABLES: dict[tuple, dict[NodeId, tuple[NodeId | None, ...]]] = {}


class Topology(abc.ABC):
    """Neighbourhood structure of a ``width x height`` node grid."""

    name = "base"

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height

    def contains(self, node: NodeId) -> bool:
        return 0 <= node.x < self.width and 0 <= node.y < self.height

    @abc.abstractmethod
    def neighbor(self, node: NodeId, direction: Direction) -> NodeId | None:
        """The adjacent node in ``direction``, or None at an open border."""

    def neighbors(self, node: NodeId) -> tuple[NodeId | None, ...]:
        """:meth:`neighbor` of ``node`` in each cardinal, indexed by
        direction (None at an open border).

        Network construction asks this of every router several times; the
        table is built once per topology shape and shared.
        """
        key = (type(self), self.width, self.height)
        table = _NEIGHBOR_TABLES.get(key)
        if table is None:
            table = _NEIGHBOR_TABLES[key] = {
                NodeId(x, y): tuple(
                    self.neighbor(NodeId(x, y), d) for d in CARDINALS
                )
                for y in range(self.height)
                for x in range(self.width)
            }
        return table[node]

    @abc.abstractmethod
    def distance(self, a: NodeId, b: NodeId) -> int:
        """Minimal hop count between two nodes."""


class MeshTopology(Topology):
    """Open-border 2D mesh."""

    name = "mesh"

    def neighbor(self, node: NodeId, direction: Direction) -> NodeId | None:
        if direction is Direction.LOCAL:
            return node
        candidate = node.neighbor(direction)
        return candidate if self.contains(candidate) else None

    def distance(self, a: NodeId, b: NodeId) -> int:
        return abs(a.x - b.x) + abs(a.y - b.y)


class TorusTopology(Topology):
    """Wrap-around 2D torus: every node has all four neighbours."""

    name = "torus"

    def neighbor(self, node: NodeId, direction: Direction) -> NodeId | None:
        if direction is Direction.LOCAL:
            return node
        raw = node.neighbor(direction)
        return NodeId(raw.x % self.width, raw.y % self.height)

    def distance(self, a: NodeId, b: NodeId) -> int:
        return ring_distance(a.x, b.x, self.width) + ring_distance(
            a.y, b.y, self.height
        )


def ring_distance(a: int, b: int, k: int) -> int:
    """Minimal distance between positions ``a`` and ``b`` on a k-ring."""
    direct = abs(a - b)
    return min(direct, k - direct)


def ring_direction(a: int, b: int, k: int, positive: Direction, negative: Direction):
    """Minimal-direction step from ``a`` towards ``b`` on a k-ring.

    Returns None when aligned.  Ties (distance exactly k/2) go the
    positive way, a fixed convention so every router agrees on a
    packet's path.
    """
    if a == b:
        return None
    forward = (b - a) % k
    backward = (a - b) % k
    return positive if forward <= backward else negative


def torus_ring_class(src: int, cur: int, dest: int, k: int) -> int:
    """Dateline VC class of a packet travelling one torus dimension.

    Rings close channel-dependency cycles, so wormhole switching needs
    two VC classes per dimension: packets start in class 0 and switch
    to class 1 after crossing the *dateline* (the wrap edge between
    position ``k-1`` and ``0``), which cuts the cycle (Dally-Seitz).

    The class is stateless: given the source, current position and the
    fixed minimal direction from source to destination, whether the
    dateline has been crossed is arithmetic.  Note that the class of the
    final channel (``cur == dest``) still matters — a flit that wrapped
    en route must be admitted into a class-1 VC even at its destination
    column, or the ring cycle re-closes.
    """
    if src == dest:
        return 0
    forward = (dest - src) % k
    backward = (src - dest) % k
    travelled = (cur - src) % k if forward <= backward else (src - cur) % k
    if forward <= backward:
        # Travelling in +x: dateline sits between k-1 and 0, i.e. the
        # packet crossed it once its absolute position wrapped below src.
        crossed = src + travelled >= k
    else:
        crossed = src - travelled < 0
    return 1 if crossed else 0


def make_topology(name: str, width: int, height: int) -> Topology:
    """Instantiate a topology by name ("mesh" or "torus")."""
    kinds = {"mesh": MeshTopology, "torus": TorusTopology}
    try:
        return kinds[name](width, height)
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; choose from {sorted(kinds)}"
        ) from None
