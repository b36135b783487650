"""RoCo path-set and VC-buffer configuration (paper Table 1).

The RoCo router owns 12 VCs grouped into 4 path sets of 3 VCs: two sets
(ports) per module.  Each VC carries a *class* describing the traffic it
may hold:

* ``dx`` / ``dy`` — flits continuing along their current dimension,
* ``txy`` — flits turning from the X to the Y dimension (live in the
  Column-Module),
* ``tyx`` — flits turning from Y to X (live in the Row-Module),
* ``injxy`` / ``injyx`` — freshly injected flits starting in X / Y.

The assignment of classes to ports changes with the routing algorithm so
the spare VCs absorb that algorithm's Head-of-Line hot spots (e.g. XY gets
a second injection VC per row port because ``Injxy`` dominates).  The
table below also encodes the deadlock discipline of Section 3.1: under
adaptive routing the second row path set's ``dx`` VCs and the second
column path set's ``txy`` VCs are *escape* VCs (packets entering them
commit to the dimension-ordered direction), and under XY-YX the extra
``dx`` VC is reserved for packets travelling their final dimension.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.types import (
    ADAPTIVE,
    EAST,
    LOCAL,
    NORTH,
    SOUTH,
    WEST,
    XY,
    XY_YX,
    Direction,
    RoutingMode,
)

#: Module identifiers.
ROW = "row"
COLUMN = "column"

#: Arrival-direction shorthands: a flit travelling East arrives on the
#: WEST input of the next router, and so on.
_EASTBOUND = (WEST,)
_WESTBOUND = (EAST,)
_SOUTHBOUND = (NORTH,)
_NORTHBOUND = (SOUTH,)
_FROM_PE = (LOCAL,)
_BOTH_X_ARRIVALS = (EAST, WEST)
_BOTH_Y_ARRIVALS = (NORTH, SOUTH)


class VCSpec(NamedTuple):
    """Declarative description of one RoCo virtual channel."""

    module: str
    port: int
    vc_class: str
    accepts_from: tuple[Direction, ...]
    escape: bool = False
    final_only: bool = False


#: The 12-VC configuration per routing mode (paper Table 1), in
#: ``all_vcs()`` order.  A reader takes its tuple from here and memoises
#: on the tuple's value, never on the mode, so a candidate table is one
#: entry swapped here (docs/modeling-notes.md, "Trying a candidate
#: table"): every router, admission table and SoA layout built after the
#: swap reads it, and none built before it is served in its place.
TABLE1: dict[RoutingMode, tuple[VCSpec, ...]] = {
    # XY needs only 8 VCs; the 4 spares are re-assigned to cut
    # Head-of-Line blocking (Section 3.1): two Injxy VCs absorb the
    # injection hot spot, and a spare dy VC floats between the two
    # travel directions of its dimension so a burst either way can use
    # it.
    XY: (
        # The dx VCs stay aligned with their port's travel direction —
        # mixing directions within a port fights the mirror allocator's
        # pairing.
        VCSpec(ROW, 0, "dx", _EASTBOUND),
        VCSpec(ROW, 0, "dx", _EASTBOUND),
        VCSpec(ROW, 0, "injxy", _FROM_PE),
        VCSpec(ROW, 1, "dx", _WESTBOUND),
        VCSpec(ROW, 1, "dx", _WESTBOUND),
        VCSpec(ROW, 1, "injxy", _FROM_PE),
        VCSpec(COLUMN, 0, "dy", _SOUTHBOUND),
        VCSpec(COLUMN, 0, "txy", _BOTH_X_ARRIVALS),
        VCSpec(COLUMN, 0, "injyx", _FROM_PE),
        VCSpec(COLUMN, 1, "dy", _NORTHBOUND),
        VCSpec(COLUMN, 1, "dy", _BOTH_Y_ARRIVALS),
        VCSpec(COLUMN, 1, "txy", _BOTH_X_ARRIVALS),
    ),
    # XY-YX: two additional dx VCs for deadlock freedom.  The extra dx
    # is reserved for final-dimension traffic, so packets that may still
    # turn never wait behind it (Section 3.1).
    XY_YX: (
        VCSpec(ROW, 0, "dx", _EASTBOUND),
        VCSpec(ROW, 0, "tyx", _BOTH_Y_ARRIVALS),
        VCSpec(ROW, 0, "injxy", _FROM_PE),
        VCSpec(ROW, 1, "dx", _WESTBOUND),
        VCSpec(ROW, 1, "dx", _BOTH_X_ARRIVALS, final_only=True),
        VCSpec(ROW, 1, "tyx", _BOTH_Y_ARRIVALS),
        VCSpec(COLUMN, 0, "dy", _SOUTHBOUND),
        VCSpec(COLUMN, 0, "txy", _BOTH_X_ARRIVALS),
        VCSpec(COLUMN, 0, "injyx", _FROM_PE),
        VCSpec(COLUMN, 1, "dy", _NORTHBOUND),
        VCSpec(COLUMN, 1, "dy", _BOTH_Y_ARRIVALS),
        VCSpec(COLUMN, 1, "txy", _BOTH_X_ARRIVALS),
    ),
    # Adaptive: escape dx and txy VCs in the second path sets only admit
    # packets committing to the XY-ordered direction (Duato's protocol
    # realised structurally).
    ADAPTIVE: (
        VCSpec(ROW, 0, "dx", _EASTBOUND),
        VCSpec(ROW, 0, "tyx", _BOTH_Y_ARRIVALS),
        VCSpec(ROW, 0, "injxy", _FROM_PE),
        VCSpec(ROW, 1, "dx", _WESTBOUND),
        VCSpec(ROW, 1, "dx", _BOTH_X_ARRIVALS, escape=True),
        VCSpec(ROW, 1, "tyx", _BOTH_Y_ARRIVALS),
        VCSpec(COLUMN, 0, "dy", _SOUTHBOUND),
        VCSpec(COLUMN, 0, "txy", _BOTH_X_ARRIVALS),
        VCSpec(COLUMN, 0, "injyx", _FROM_PE),
        VCSpec(COLUMN, 1, "dy", _NORTHBOUND),
        VCSpec(COLUMN, 1, "txy", _EASTBOUND, escape=True),
        VCSpec(COLUMN, 1, "txy", _WESTBOUND, escape=True),
    ),
}


def classify_vc(input_dir: Direction, route: Direction) -> str:
    """Table-1 VC class for a flit arriving on ``input_dir`` routed to ``route``."""
    if input_dir is LOCAL:
        return "injxy" if route.is_row else "injyx"
    if input_dir.is_row:
        return "dx" if route.is_row else "txy"
    return "dy" if route.is_column else "tyx"


def table1_summary(mode: RoutingMode) -> dict[str, list[str]]:
    """Class labels per path set, in the layout of the paper's Table 1."""
    summary: dict[str, list[str]] = {
        "row_port1": [],
        "row_port2": [],
        "column_port1": [],
        "column_port2": [],
    }
    names = {"injxy": "Injxy", "injyx": "Injyx"}
    for spec in TABLE1[mode]:
        key = f"{spec.module}_port{spec.port + 1}"
        summary[key].append(names.get(spec.vc_class, spec.vc_class))
    return summary
