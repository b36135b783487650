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
#: Output direction -> its crossbar slot in the module that drives it.
SLOTS: dict[Direction, int] = {
    d: s for directions in MODULE_DIRECTIONS.values() for s, d in enumerate(directions)
}


class RoCoModule:
    """Row- or Column-Module of one RoCo router."""

    def __init__(self, name: str, vcs_per_port: int, mirror: bool = True) -> None:
        if name not in MODULE_DIRECTIONS:
            raise ValueError(f"unknown module {name!r}")
        self.name = name
        self.directions = MODULE_DIRECTIONS[name]
        self.ports: list[list[VirtualChannel]] = [[], []]
        #: Flat VC view in port order, built by :meth:`seal`; read-hot.
        self._flat: list[VirtualChannel] = []
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
        """Build the flat view once every VC is in."""
        self._flat = self.ports[0] + self.ports[1]

    def handles(self, direction: Direction) -> bool:
        return direction in self.directions

    def all_vcs(self) -> list[VirtualChannel]:
        return self._flat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.dead else "alive"
        return f"RoCoModule({self.name}, {state})"
