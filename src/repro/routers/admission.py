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
answer is one table of ``9 * 5 * 2`` entries, built here once and shared
by every router of every network and by the SoA layout.  RoCo's table is
memoised on its VC table's value (a ``TABLE1`` entry) and routing mode,
in an LRU of :data:`TABLE_CACHE_SIZE` entries, so a search over candidate VC
tables keeps only the latest alive; Path-Sensitive's quadrant sets do
not depend on the routing mode, so it has one table per process.

An entry is the ordered tuple of ``(target, route)`` pairs the router
admits the head to: ``target`` the VC's position in ``all_vcs()`` or
:data:`~repro.routers.base.EJECT` (early ejection, routed LOCAL),
``route`` the committed look-ahead direction (RoCo) or None (the
Path-Sensitive router picks its output on arrival).  The order is the
VC allocator's: its first-wins tie-break depends on it.  A live router
only drops the entries of a dead module.

RoCo's source side reads a second table of the same kind:
:func:`injection_table`, the scan order of ``injection_vc_for``.
"""

from __future__ import annotations

from functools import cache, lru_cache, partial

from repro.core.types import ADAPTIVE, LOCAL, Direction, NodeId, Packet, RoutingMode
from repro.routers.base import EJECT
from repro.routers.quadrants import PATH_SET_VCS, quadrant_of
from repro.routers.roco.path_set import COLUMN, ROW, VCSpec, classify_vc
from repro.routing import make_routing

#: The router the builders ask from: at (1, 1), a destination of
#: direction class ``cls`` is ``NodeId(*divmod(cls, 3))``.
_CENTRE = NodeId(1, 1)

#: How many (VC table, routing mode) pairs keep their admission and
#: injection tables: every mode of Table 1 and then some.
TABLE_CACHE_SIZE = 32

Entry = tuple[tuple[object, Direction | None], ...]
Injection = tuple[tuple[Direction, tuple[int, ...]], ...]


def admission_index(cls: int, input_dir: int, yx_first: int) -> int:
    """Where key ``(cls, input_dir, yx_first)`` sits in a table.

    The routers inline this on their hot path.
    """
    return (cls * 5 + input_dir) * 2 + yx_first


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def admission_table(specs: tuple[VCSpec, ...], mode: RoutingMode) -> tuple[Entry, ...]:
    """RoCo's admission entries on the VC table ``specs`` under ``mode``,
    indexed by :func:`admission_index`."""
    return _table(partial(_roco_admit, specs, mode))


@cache
def path_sensitive_table() -> tuple[Entry, ...]:
    """Path-Sensitive's admission entries, indexed by
    :func:`admission_index`: the same under every routing mode."""
    return _table(_path_sensitive_admit)


def _table(admit) -> tuple[Entry, ...]:
    """The entries ``admit(input_dir, packet)`` yields, by key."""
    table = []
    for cls in range(9):
        for input_dir in Direction:
            for yx in (False, True):
                if cls == 4:
                    table.append(((EJECT, LOCAL),))
                    continue
                table.append(tuple(admit(input_dir, _packet(cls, yx))))
    return tuple(table)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def injection_table(
    specs: tuple[VCSpec, ...], mode: RoutingMode
) -> tuple[Injection, ...]:
    """RoCo's injection scan order on the VC table ``specs`` under
    ``mode``, indexed by ``cls * 2 + yx_first``.

    An entry holds, per first direction of the routing function in its
    candidate order, that direction and the positions (in ``all_vcs()``)
    of its module's Injxy or Injyx VCs in ``RoCoModule.all_vcs()``
    order: the order ``injection_vc_for`` scans, and whose first
    best-credit VC it takes.
    """
    routing = make_routing(mode)
    walk = _module_walk(specs)
    table = []
    for cls in range(9):
        for yx in (False, True):
            entry = []
            for route in routing.candidates(_CENTRE, _packet(cls, yx)):
                module, vc_class = (ROW, "injxy") if route.is_row else (COLUMN, "injyx")
                positions = tuple(
                    p
                    for p in walk
                    if specs[p].module == module and specs[p].vc_class == vc_class
                )
                entry.append((route, positions))
            table.append(tuple(entry))
    return tuple(table)


def _packet(cls: int, yx: bool) -> Packet:
    """A packet at the centre bound for direction class ``cls``."""
    packet = Packet(
        pid=-1, src=_CENTRE, dest=NodeId(*divmod(cls, 3)), size=1, created_cycle=0
    )
    packet.yx_first = yx
    return packet


def _module_walk(specs) -> list[int]:
    """Spec positions in ``RoCoModule.all_vcs()`` order: port 0, then
    port 1 (the router adds its VCs in spec order)."""
    return sorted(range(len(specs)), key=lambda p: specs[p].port)


def _roco_admit(
    specs: tuple[VCSpec, ...], mode: RoutingMode, input_dir: Direction, packet: Packet
):
    """RoCo's Table-1 admission: per route, the VCs of the class the turn
    needs (each class lives in the route's module), fed by the input,
    final-only VCs for a last-dimension route and escape VCs for the
    dimension-ordered one."""
    routing = make_routing(mode)
    escape = None
    if mode is ADAPTIVE:
        escape = routing.escape_direction(_CENTRE, packet)
    dest = packet.dest
    walk = _module_walk(specs)
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


def _path_sensitive_admit(input_dir: Direction, packet: Packet):
    """The quadrant set serving the destination from ``input_dir``, its
    VCs fed by that input; no set at all for a non-minimal arrival."""
    try:
        quadrant = quadrant_of(_CENTRE, packet.dest, input_dir)
    except ValueError:
        return
    for p, (q, _arrival, accepts_from) in enumerate(PATH_SET_VCS):
        if q == quadrant and input_dir in accepts_from:
            yield p, None
