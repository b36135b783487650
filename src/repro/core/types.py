"""Fundamental data types shared by every subsystem of the simulator.

The vocabulary here mirrors the paper's: a *packet* is the unit of routing
(four 128-bit flits by default), a *flit* is the unit of flow control, and
*ports* are the five physical directions of a 2D-mesh router (the four
cardinal directions plus the connection to the local Processing Element).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Direction(enum.IntEnum):
    """Physical port direction of a 2D-mesh router.

    The integer values are stable and used as indices into port arrays.
    ``LOCAL`` is the connection to the attached Processing Element (PE).
    """

    NORTH = 0
    EAST = 1
    SOUTH = 2
    WEST = 3
    LOCAL = 4

    @property
    def opposite(self) -> "Direction":
        """The direction a flit *arrives from* when sent *towards* ``self``.

        A flit forwarded out of the EAST output port of one router enters
        the WEST input port of its neighbour.  ``LOCAL`` is its own
        opposite (injection/ejection share the PE interface).
        """
        if self is Direction.LOCAL:
            return Direction.LOCAL
        return Direction((self + 2) % 4)

    @property
    def is_row(self) -> bool:
        """True for East/West — traffic handled by RoCo's Row-Module."""
        return self in (Direction.EAST, Direction.WEST)

    @property
    def is_column(self) -> bool:
        """True for North/South — traffic handled by RoCo's Column-Module."""
        return self in (Direction.NORTH, Direction.SOUTH)


#: The four cardinal directions, in index order.
CARDINALS = (Direction.NORTH, Direction.EAST, Direction.SOUTH, Direction.WEST)

#: ``OPPOSITE[d]`` is ``d.opposite``, read without the enum call.
OPPOSITE = tuple(d.opposite for d in Direction)


class RoutingMode(enum.Enum):
    """The three routing algorithms evaluated in the paper (Section 5.4)."""

    XY = "xy"
    XY_YX = "xy-yx"
    ADAPTIVE = "adaptive"


class FlitType(enum.IntEnum):
    """Position of a flit within its packet."""

    HEAD = 0
    BODY = 1
    TAIL = 2


class DropReason(enum.Enum):
    """Why a packet was removed from the network without being delivered.

    Every dropped packet carries exactly one reason, so the conservation
    invariant (delivered + in-flight + dropped-by-reason == generated)
    can be audited per cause.  See docs/fault-model.md for the glossary.
    """

    #: The source PE could not start the worm: the local injection path
    #: (module or whole router) is dead.
    INJECTION_BLOCKED = "injection_blocked"
    #: A head flit stalled on an unallocatable faulty resource past the
    #: configured ``fault_drop_timeout``.
    STALL_TIMEOUT = "stall_timeout"
    #: Flits were buffered inside a module/router when it died; the worm
    #: was salvaged out of the network at the fault event.
    BUFFERED_IN_DEAD = "buffered_in_dead"
    #: A worm stretched across a link/VC that a runtime fault severed
    #: mid-flight (its head was already committed downstream).
    ROUTE_SEVERED = "route_severed"
    #: A flit arrived off a link into a VC that died while it was flying.
    ARRIVED_AT_DEAD = "arrived_at_dead"
    #: Evicted when a runtime BUFFER fault shrank its virtual channel to
    #: the single-slot virtual-queuing mode.
    FAULT_EVICTED = "fault_evicted"
    #: Still outstanding at end of run with no live path to its
    #: destination (reachability classified it as stranded).
    UNREACHABLE = "unreachable"
    #: Still outstanding at end of run although a live path existed
    #: (ran out of simulated cycles / drain budget).
    UNDELIVERED = "undelivered"
    #: Dropped by a caller that did not state a cause (external tools).
    UNSPECIFIED = "unspecified"


@dataclass(frozen=True)
class NodeId:
    """Coordinates of a router in the mesh.

    ``x`` grows towards the East, ``y`` grows towards the South, so node
    (0, 0) is the North-West corner.  Frozen so it can key dictionaries.
    """

    x: int
    y: int

    def neighbor(self, direction: Direction) -> "NodeId":
        """The coordinates of the adjacent node in ``direction``."""
        if direction is Direction.NORTH:
            return NodeId(self.x, self.y - 1)
        if direction is Direction.SOUTH:
            return NodeId(self.x, self.y + 1)
        if direction is Direction.EAST:
            return NodeId(self.x + 1, self.y)
        if direction is Direction.WEST:
            return NodeId(self.x - 1, self.y)
        return self

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


def grid_nodes(width: int, height: int) -> list[NodeId]:
    """Every node of a ``width x height`` grid, row-major.

    Row-major is the order the network builds and steps its routers in,
    so it is also the order traffic binding and fault sampling draw
    over: a seeded draw names the same nodes wherever the list is made.
    """
    return [NodeId(x, y) for y in range(height) for x in range(width)]


@dataclass
class Packet:
    """The unit of routing: a worm of ``size`` flits sharing one path.

    Latency bookkeeping lives here: ``created_cycle`` is when the source PE
    generated the packet (source queueing counts towards latency, as in the
    paper's end-to-end definition) and ``delivered_cycle`` is when the tail
    flit reached the destination PE.
    """

    pid: int
    src: NodeId
    dest: NodeId
    size: int
    created_cycle: int
    injected_cycle: int | None = None
    delivered_cycle: int | None = None
    dropped_cycle: int | None = None
    #: Why the packet was dropped; None while alive or once delivered.
    drop_reason: "DropReason | None" = None
    #: Chosen only for XY-YX routing: True when the packet travels Y-first.
    yx_first: bool = False
    #: Number of flits of this packet delivered so far (for integrity checks).
    flits_delivered: int = 0
    #: Links the worm's head flit actually crossed.  Incremented at every
    #: launch onto an inter-router link, so delivered packets report real
    #: traversals rather than the minimal src->dest distance (which a
    #: detour — post-fault double-routing, non-minimal adaptive paths —
    #: would under-report).
    hops: int = 0
    #: True when created during the measurement phase (post-warm-up).
    measured: bool = False

    @property
    def latency(self) -> int:
        """End-to-end latency in cycles; only valid once delivered."""
        if self.delivered_cycle is None:
            raise ValueError(f"packet {self.pid} has not been delivered")
        return self.delivered_cycle - self.created_cycle


class Flit:
    """The unit of flow control and buffering.

    ``route`` is the output direction at the router the flit currently
    occupies; ``lookahead_route`` is the pre-computed output direction at
    the *next* router (look-ahead routing, Section 3.1).  Both are carried
    by the head flit and inherited by the body/tail flits of the worm.
    """

    __slots__ = (
        "packet",
        "seq",
        "ftype",
        "route",
        "lookahead_route",
        "vc_hint",
        "arrival",
        "is_head",
        "closes_worm",
    )

    def __init__(self, packet: Packet, seq: int, ftype: FlitType) -> None:
        self.packet = packet
        self.seq = seq
        self.ftype = ftype
        self.route: Direction | None = None
        self.lookahead_route: Direction | None = None
        #: Downstream VC (or EJECT sentinel) selected by the upstream VA.
        self.vc_hint = None
        #: Cycle the flit entered its current buffer (routers without
        #: look-ahead routing charge head flits an RC cycle after this).
        self.arrival = -1
        #: Position flags, precomputed once — read on every pipeline hop.
        self.is_head = ftype is FlitType.HEAD
        self.closes_worm = ftype is FlitType.TAIL or seq == packet.size - 1

    @property
    def is_tail(self) -> bool:
        return self.ftype is FlitType.TAIL

    @property
    def dest(self) -> NodeId:
        return self.packet.dest

    @property
    def src(self) -> NodeId:
        return self.packet.src

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flit(pid={self.packet.pid}, seq={self.seq}, {self.ftype.name}, "
            f"{self.src}->{self.dest}, route={self.route})"
        )


def make_packet_flits(packet: Packet) -> list[Flit]:
    """Split ``packet`` into its worm of flits (HEAD, BODY..., TAIL).

    A single-flit packet is emitted as a lone HEAD flit that also acts as
    the tail (``is_tail`` is derived from position, so callers should use
    ``seq == packet.size - 1`` for single-flit worms; we simply mark it
    TAIL-typed HEAD by convention of ``FlitType.HEAD`` plus last-seq).
    """
    if packet.size < 1:
        raise ValueError("packet size must be >= 1 flit")
    flits = []
    for seq in range(packet.size):
        if seq == 0:
            ftype = FlitType.HEAD
        elif seq == packet.size - 1:
            ftype = FlitType.TAIL
        else:
            ftype = FlitType.BODY
        flits.append(Flit(packet, seq, ftype))
    if packet.size == 1:
        # A lone flit must close the wormhole it opens.
        flits[0].ftype = FlitType.HEAD
        # Mark it as tail through a dedicated attribute-free convention:
        # routers treat `seq == size - 1` as the tail condition as well.
    return flits


def is_worm_tail(flit: Flit) -> bool:
    """True when ``flit`` closes its packet's wormhole.

    Handles the single-flit-packet case where the head is also the tail.
    The flag is derived once at construction (``Flit.closes_worm``); hot
    paths read the attribute directly.
    """
    return flit.closes_worm
