"""Admission of the look-ahead routers, evaluated once per router shape.

A RoCo or Path-Sensitive router commits a head's route one hop ahead,
so which of its VCs may take an arriving head — its *admission*, the
answer of ``vc_candidates`` — is fixed by its VC specs (paper Table 1,
repro.routers.roco.path_set; the quadrant sets of
repro.routers.quadrants), the routing function and three facts about
the head: the direction class of its destination
(:func:`repro.routing.base.direction_class`), the input it enters on
and its XY-YX order.  Both routers run on a mesh only, where every
router gives the same answer for those three facts.  So the whole
answer is one table of ``9 * 5 * 2`` entries per (architecture, routing
mode), built here once and shared by every router of every network and
by the SoA layout.

An entry is the ordered tuple of ``(target, route)`` pairs the router
admits the head to: ``target`` the VC's position in ``all_vcs()`` or
:data:`~repro.routers.base.EJECT` (early ejection, routed LOCAL),
``route`` the committed look-ahead direction (RoCo) or None (the
Path-Sensitive router picks its output on arrival).  The order is the
VC allocator's: its first-wins tie-break depends on it.  A live router
only drops the entries of a dead module.
"""

from __future__ import annotations

from functools import cache

from repro.core.types import Direction, NodeId, Packet, RoutingMode
from repro.routers.base import EJECT
from repro.routers.quadrants import PATH_SET_VCS, quadrant_of
from repro.routers.roco.path_set import classify_vc, vc_configuration
from repro.routing import make_routing

#: The router the builders ask from: at (1, 1), a destination of
#: direction class ``cls`` is ``NodeId(*divmod(cls, 3))``.
_CENTRE = NodeId(1, 1)

Entry = tuple[tuple[object, Direction | None], ...]


def admission_index(cls: int, input_dir: int, yx_first: int) -> int:
    """Where key ``(cls, input_dir, yx_first)`` sits in a table.

    The routers inline this on their hot path.
    """
    return (cls * 5 + input_dir) * 2 + yx_first


@cache
def admission_table(architecture: str, mode: RoutingMode) -> tuple[Entry, ...]:
    """The admission entries of ``architecture`` under ``mode``, indexed
    by :func:`admission_index`."""
    admit = _ADMIT.get(architecture)
    if admit is None:
        raise ValueError(f"{architecture!r} routers have no admission table")
    table = []
    for cls in range(9):
        dest = NodeId(*divmod(cls, 3))
        for input_dir in Direction:
            for yx in (False, True):
                if dest == _CENTRE:
                    table.append(((EJECT, Direction.LOCAL),))
                    continue
                packet = Packet(pid=-1, src=_CENTRE, dest=dest, size=1, created_cycle=0)
                packet.yx_first = yx
                table.append(tuple(admit(mode, input_dir, packet)))
    return tuple(table)


def _roco_admit(mode: RoutingMode, input_dir: Direction, packet: Packet):
    """RoCo's Table-1 admission: per route, the VCs of the class the turn
    needs (each class lives in the route's module), fed by the input,
    final-only VCs for a last-dimension route and escape VCs for the
    dimension-ordered one."""
    specs = vc_configuration(mode)
    routing = make_routing(mode)
    escape = None
    if mode is RoutingMode.ADAPTIVE:
        escape = routing.escape_direction(_CENTRE, packet)
    dest = packet.dest
    # A module's VCs in RoCoModule.all_vcs() order: port 0, then port 1.
    walk = sorted(range(len(specs)), key=lambda p: specs[p].port)
    for route in routing.candidates(_CENTRE, packet):
        vc_class = classify_vc(input_dir, route)
        final = dest.y == _CENTRE.y if route.is_row else dest.x == _CENTRE.x
        for p in walk:
            spec = specs[p]
            if spec.vc_class != vc_class or input_dir not in spec.accepts_from:
                continue
            if spec.final_only and not final:
                continue
            if spec.escape and route is not escape:
                continue
            yield p, route


def _path_sensitive_admit(mode: RoutingMode, input_dir: Direction, packet: Packet):
    """The quadrant set serving the destination from ``input_dir``, its
    VCs fed by that input; no set at all for a non-minimal arrival.  The
    routing mode plays no part."""
    try:
        quadrant = quadrant_of(_CENTRE, packet.dest, input_dir)
    except ValueError:
        return
    for p, (q, _arrival, accepts_from) in enumerate(PATH_SET_VCS):
        if q == quadrant and input_dir in accepts_from:
            yield p, None


_ADMIT = {"roco": _roco_admit, "path_sensitive": _path_sensitive_admit}
