"""Path-Sensitive quadrant path sets (Kim et al., DAC'05).

Four destination-quadrant path sets (NE, NW, SE, SW), each holding three
VCs grouped by the direction the flit arrived from.  Every quadrant set
reaches only its two constituent outputs (NE -> North or East).  This is
the Path-Sensitive counterpart of RoCo's Table-1 VC specs
(repro.routers.roco.path_set): the router builds its VCs from
:data:`PATH_SET_VCS` and the admission table (repro.routers.admission)
reads the same specs.
"""

from __future__ import annotations

from repro.core.types import EAST, LOCAL, NORTH, SOUTH, WEST, Direction, NodeId

#: Quadrant path sets and the two outputs each one reaches.
QUADRANTS = ("NE", "NW", "SE", "SW")
QUADRANT_OUTPUTS = {
    "NE": (NORTH, EAST),
    "NW": (NORTH, WEST),
    "SE": (SOUTH, EAST),
    "SW": (SOUTH, WEST),
}

#: Arrival directions that can feed each quadrant set: a flit heading
#: North-East arrives from the South input (going North), the West input
#: (going East) or the local PE.
QUADRANT_ARRIVALS = {
    "NE": (SOUTH, WEST, LOCAL),
    "NW": (SOUTH, EAST, LOCAL),
    "SE": (NORTH, WEST, LOCAL),
    "SW": (NORTH, EAST, LOCAL),
}

#: Every VC of a router as ``(quadrant, arrival, accepts_from)``, in
#: ``all_vcs()`` order: three per set, one per possible previous-hop
#: direction (the DAC'05 grouping), the local group doubling as a shared
#: overflow so a burst from one direction can use it.
PATH_SET_VCS = tuple(
    (
        quadrant,
        arrival,
        QUADRANT_ARRIVALS[quadrant] if arrival is LOCAL else (arrival,),
    )
    for quadrant in QUADRANTS
    for arrival in QUADRANT_ARRIVALS[quadrant]
)

#: Quadrant pairs able to serve an axis-aligned destination.
_AXIS_QUADRANTS = {
    "N": ("NE", "NW"),
    "S": ("SE", "SW"),
    "E": ("NE", "SE"),
    "W": ("NW", "SW"),
}


def quadrant_of(node: NodeId, dest: NodeId, input_dir: Direction = LOCAL) -> str:
    """Destination quadrant of ``dest`` seen from ``node``.

    Axis-aligned destinations sit on the boundary between two quadrant
    sets; the set that can actually admit the flit depends on where it
    arrives from (a pure-South flit that was travelling East arrives on
    the West input, which only the SE set accepts).  Transitions between
    quadrant classes only ever follow monotone coordinate movement, so
    the class dependency order stays acyclic and deadlock-free.
    """
    ns = "N" if dest.y < node.y else ("S" if dest.y > node.y else "")
    ew = "E" if dest.x > node.x else ("W" if dest.x < node.x else "")
    if ns and ew:
        return ns + ew
    if not ns and not ew:
        raise ValueError(f"destination {dest} equals current node {node}")
    for quadrant in _AXIS_QUADRANTS[ns or ew]:
        if input_dir in QUADRANT_ARRIVALS[quadrant]:
            return quadrant
    raise ValueError(
        f"no quadrant set serves dest {dest} from {node} via {input_dir.name}"
    )
