"""One RoCo module: a path-set pair feeding a 2x2 crossbar.

The Row-Module switches East/West traffic, the Column-Module North/South
traffic.  Each module owns two path sets (ports) of three VCs, a Mirror
switch allocator, and its own fault state — failure of a router-centric
or critical component isolates only the containing module (Section 3.4).
"""

from __future__ import annotations

from repro.arbiters.mirror import MirrorAllocator
from repro.arbiters.sequential import SequentialAllocator
from repro.core.buffer import VirtualChannel
from repro.core.types import EAST, NORTH, SOUTH, WEST, Direction
from repro.routers.roco.path_set import COLUMN, ROW

#: Output directions per module, indexed by crossbar slot.
MODULE_DIRECTIONS = {
    ROW: (EAST, WEST),
    COLUMN: (NORTH, SOUTH),
}


class RoCoModule:
    """Row- or Column-Module of one RoCo router."""

    def __init__(self, name: str, vcs_per_port: int, mirror: bool = True) -> None:
        if name not in MODULE_DIRECTIONS:
            raise ValueError(f"unknown module {name!r}")
        self.name = name
        self.directions = MODULE_DIRECTIONS[name]
        #: direction -> crossbar slot; dict lookup beats tuple.index on
        #: the per-ready-VC SA request path.
        self.slot_map = {d: s for s, d in enumerate(self.directions)}
        self.ports: list[list[VirtualChannel]] = [[], []]
        #: Flat VC view in port order, built by :meth:`seal`; read-hot.
        self._flat: list[VirtualChannel] = []
        #: Switch-allocation request matrix ``[port][slot][vc]``, built by
        #: :meth:`seal`.  Scratch owned by the router's allocate phase,
        #: which sets the ready bits, runs the allocator and clears them
        #: again: all-False between uses.
        self.sa_requests: list[list[list[bool]]] = []
        #: The Mirroring Effect allocator, or (ablation) a plain
        #: separable allocator without the maximal-matching guarantee.
        if mirror:
            self.allocator = MirrorAllocator(vcs_per_port)
        else:
            self.allocator = SequentialAllocator(vcs_per_port)
        #: Module isolated by a router-centric / critical-path fault.
        self.dead = False
        #: RC fault: departing heads pay the double-routing cycle.
        self.rc_faulty = False
        #: SA fault: arbitration offloaded to the idle VA arbiters.
        self.sa_degraded = False

    def add_vc(self, port: int, vc: VirtualChannel) -> None:
        """Append ``vc`` to path set ``port``; :meth:`seal` after the last."""
        self.ports[port].append(vc)

    def seal(self) -> None:
        """Build the flat view and the request matrix once every VC is in."""
        self._flat = self.ports[0] + self.ports[1]
        width = len(self.ports[0])
        self.sa_requests = [[[False] * width, [False] * width] for _ in range(2)]

    def handles(self, direction: Direction) -> bool:
        return direction in self.directions

    def all_vcs(self) -> list[VirtualChannel]:
        return self._flat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.dead else "alive"
        return f"RoCoModule({self.name}, {state})"
