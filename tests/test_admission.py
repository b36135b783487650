"""The admission table == the loops it replaced, on every key.

``vc_candidates`` of a RoCo or Path-Sensitive router reads one entry of
a shared table (repro.routers.admission).  The oracles below are the
bodies those routers ran before the table: RoCo's loop over routes and
module VCs (Table-1 class, arrival set, final-only and escape VCs) and
Path-Sensitive's quadrant filter.  Each is asked, next to the live
router, about every input and XY-YX order for a destination of every
direction class every router of the mesh can see, on several mesh
shapes, for every routing mode and every state of health the router can
be in: the answers must be the same VCs, in the same order (the VA
tie-break reads it), with the same routes.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.types import Direction, NodeId, Packet, RoutingMode
from repro.routers.admission import admission_index, admission_table
from repro.routers.base import EJECT
from repro.routers.quadrants import quadrant_of
from repro.routers.roco.path_set import classify_vc
from repro.routing.base import direction_class

MESHES = ((3, 3), (4, 4), (5, 3), (8, 8))
#: Meshes asked about every destination; the others about one of each
#: direction class per router.
EVERY_DEST = {(3, 3), (4, 4), (5, 3)}


def roco_oracle(router, input_dir: Direction, packet: Packet) -> list:
    """RoCo admission as the router computed it per call."""
    if not router.accepting(input_dir):
        return []
    if packet.dest == router.node:
        return [(EJECT, Direction.LOCAL)]
    out = []
    escape_dir = None
    if router.routing.mode is RoutingMode.ADAPTIVE:
        escape_dir = router.routing.escape_direction(router.node, packet)
    for route in router.routing.candidates(router.node, packet):
        cls = classify_vc(input_dir, route)
        module = router.module_for(route)
        if module.dead:
            continue
        if route.is_row:
            final = packet.dest.y == router.node.y
        else:
            final = packet.dest.x == router.node.x
        for vc in module.all_vcs():
            if vc.vc_class != cls or input_dir not in vc.accepts_from:
                continue
            if vc.final_only and not final:
                continue
            if vc.escape and route is not escape_dir:
                continue
            out.append((vc, route))
    return out


def path_sensitive_oracle(router, input_dir: Direction, packet: Packet) -> list:
    """Path-Sensitive admission as the router computed it per call."""
    if router.dead:
        return []
    if packet.dest == router.node:
        return [(EJECT, Direction.LOCAL)]
    try:
        quadrant = quadrant_of(router.node, packet.dest, input_dir)
    except ValueError:
        return []
    return [
        (vc, None)
        for vc in router.path_sets[quadrant]
        if input_dir in vc.accepts_from
    ]


def roco_health(router):
    """Healthy, Row-Module dead, Column-Module dead, both dead."""
    for row_dead, column_dead in itertools.product((False, True), repeat=2):
        router.row.dead, router.column.dead = row_dead, column_dead
        yield f"row={row_dead},column={column_dead}"
    router.row.dead = router.column.dead = False


def path_sensitive_health(router):
    """Healthy, then the whole router dead."""
    for dead in (False, True):
        router.dead = dead
        yield f"dead={dead}"
    router.dead = False


ARCHITECTURES = {
    "roco": (roco_oracle, roco_health),
    "path_sensitive": (path_sensitive_oracle, path_sensitive_health),
}


def destinations(net: Network, node: NodeId, every: bool):
    """Every node, or the first node of each direction class."""
    seen = set()
    for dest in net.nodes:
        cls = direction_class(dest.x - node.x, dest.y - node.y)
        if every or cls not in seen:
            seen.add(cls)
            yield cls, dest


@pytest.mark.parametrize("width,height", MESHES, ids=[f"{w}x{h}" for w, h in MESHES])
@pytest.mark.parametrize("mode", list(RoutingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("architecture", sorted(ARCHITECTURES))
def test_table_read_equals_the_oracle(architecture, mode, width, height):
    oracle, health = ARCHITECTURES[architecture]
    net = Network(
        SimulationConfig(width=width, height=height, router=architecture, routing=mode)
    )
    net.wire()
    keys = set()
    for router in net.routers.values():
        for cls, dest in destinations(net, router.node, (width, height) in EVERY_DEST):
            for input_dir, yx in itertools.product(Direction, (False, True)):
                packet = Packet(pid=0, src=router.node, dest=dest, size=4, created_cycle=0)
                packet.yx_first = yx
                keys.add((cls, input_dir, yx))
                for state in health(router):
                    got = router.vc_candidates(input_dir, packet)
                    want = oracle(router, input_dir, packet)
                    assert type(got) is list
                    assert [(id(t), r) for t, r in got] == [
                        (id(t), r) for t, r in want
                    ], (router.node, dest, input_dir, yx, state)
    # Every key of the table was asked about on this mesh.
    assert len(keys) == len(admission_table(architecture, mode)) == 9 * 5 * 2
    net.teardown()


def test_one_table_per_router_shape():
    """Every router of every network reads the memoised table."""
    nets = [
        Network(SimulationConfig(width=k, height=k, router="roco", routing="xy"))
        for k in (3, 4)
    ]
    tables = {id(r._admission) for net in nets for r in net.routers.values()}
    assert tables == {id(admission_table("roco", RoutingMode.XY))}
    assert admission_table("roco", RoutingMode.XY) is not admission_table(
        "roco", RoutingMode.ADAPTIVE
    )
    with pytest.raises(ValueError):
        admission_table("generic", RoutingMode.XY)


def test_arrived_keys_eject_and_positions_index_all_vcs():
    for architecture, mode in itertools.product(ARCHITECTURES, RoutingMode):
        table = admission_table(architecture, mode)
        for input_dir, yx in itertools.product(Direction, (0, 1)):
            assert table[admission_index(4, input_dir, yx)] == (
                (EJECT, Direction.LOCAL),
            )
        for entry in table:
            for target, route in entry:
                if target is EJECT:
                    assert route is Direction.LOCAL
                else:
                    assert 0 <= target < 12
                    assert (route is None) == (architecture == "path_sensitive")
