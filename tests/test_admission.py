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
import random

import pytest

from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.types import ADAPTIVE, XY, Direction, NodeId, Packet, RoutingMode
from repro.routers.admission import (
    admission_index,
    admission_table,
    injection_table,
    path_sensitive_table,
)
from repro.routers.base import EJECT
from repro.routers.quadrants import quadrant_of
from repro.routers.roco.path_set import TABLE1, classify_vc
from repro.routing.base import direction_class

from .test_candidate_table import northbound_pin

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


def roco_injection_oracle(router, packet: Packet):
    """RoCo's ``injection_vc_for`` as the router computed it per call:
    per first direction, the module's Injxy/Injyx VCs, best credit
    first-wins."""
    best = None
    best_credits = -1
    for route in router.routing.candidates(router.node, packet):
        module = router.module_for(route)
        if module.dead:
            continue
        cls = "injxy" if route.is_row else "injyx"
        for vc in module.all_vcs():
            if vc.vc_class != cls:
                continue
            if vc.injectable(router.network.cycle):
                credit = vc.credits(router.network.cycle)
                if credit > best_credits:
                    best, best_credits = (vc, route), credit
    return best


def roco_injection_possible_oracle(router, packet: Packet) -> bool:
    """RoCo's ``injection_possible`` as the router computed it per call."""
    if router.dead:
        return False
    return any(
        not router.module_for(route).dead
        for route in router.routing.candidates(router.node, packet)
    )


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


def table_of(architecture: str, mode: RoutingMode):
    """The admission table a router of ``architecture`` reads under ``mode``."""
    if architecture == "roco":
        return admission_table(TABLE1[mode], mode)
    return path_sensitive_table()


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
    assert len(keys) == len(table_of(architecture, mode)) == 9 * 5 * 2
    net.teardown()


def test_roco_routers_on_one_vc_table_share_its_tables():
    """Every RoCo router of two networks on the same spec tuple reads one
    admission table and one injection table."""
    nets = [
        Network(SimulationConfig(width=k, height=k, router="roco", routing="xy"))
        for k in (3, 4)
    ]
    routers = [r for net in nets for r in net.routers.values()]
    specs = TABLE1[XY]
    assert {id(r._admission) for r in routers} == {id(admission_table(specs, XY))}
    assert {id(r._injection) for r in routers} == {id(injection_table(specs, XY))}
    assert admission_table(specs, XY) is not admission_table(TABLE1[ADAPTIVE], ADAPTIVE)
    for net in nets:
        net.teardown()


def test_path_sensitive_has_one_table_under_every_mode():
    tables = set()
    for mode in RoutingMode:
        net = Network(
            SimulationConfig(width=3, height=3, router="path_sensitive", routing=mode)
        )
        tables |= {id(r._admission) for r in net.routers.values()}
        net.teardown()
    assert tables == {id(path_sensitive_table())}


def test_a_swapped_vc_table_has_its_own_tables(monkeypatch):
    """A candidate tuple in ``TABLE1`` yields other tables; putting
    Table 1 back yields the original objects, with no cache cleared."""
    original = admission_table(TABLE1[XY], XY), injection_table(TABLE1[XY], XY)
    candidate = northbound_pin()
    monkeypatch.setitem(TABLE1, XY, candidate)
    net = Network(SimulationConfig(width=3, height=3, router="roco", routing="xy"))
    router = net.routers[NodeId(1, 1)]
    assert router._admission is admission_table(candidate, XY)
    assert router._admission != original[0]
    assert router._injection is injection_table(candidate, XY) is not original[1]
    net.teardown()
    monkeypatch.undo()
    assert admission_table(TABLE1[XY], XY) is original[0]
    assert injection_table(TABLE1[XY], XY) is original[1]


def test_arrived_keys_eject_and_positions_index_all_vcs():
    for architecture, mode in itertools.product(ARCHITECTURES, RoutingMode):
        table = table_of(architecture, mode)
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


def _ids(choice):
    """An injection choice ``(vc, route)`` compared by VC identity."""
    return None if choice is None else (id(choice[0]), choice[1])


@pytest.mark.parametrize("width,height", MESHES, ids=[f"{w}x{h}" for w, h in MESHES])
@pytest.mark.parametrize("mode", list(RoutingMode), ids=lambda m: m.value)
def test_injection_read_equals_the_oracle(mode, width, height):
    """``injection_vc_for`` / ``injection_possible`` read the injection
    table; the oracles ask the routing function and scan the module.
    Every router, destination class, XY-YX order and module health, on
    drawn injection-VC states (owned or free, any credit count)."""
    net = Network(SimulationConfig(width=width, height=height, routing=mode))
    net.wire()
    rng = random.Random(f"{mode.value}-{width}x{height}")
    keys = set()
    for router in net.routers.values():
        injection_vcs = [vc for vc in router.all_vcs() if vc.vc_class.startswith("inj")]
        for cls, dest in destinations(net, router.node, every=False):
            for yx in (False, True):
                packet = Packet(
                    pid=0, src=router.node, dest=dest, size=4, created_cycle=0
                )
                packet.yx_first = yx
                keys.add((cls, yx))
                for state in roco_health(router):
                    for _ in range(4):
                        for vc in injection_vcs:
                            vc.owner_pid = rng.choice((None, None, 7))
                            vc._available = rng.randrange(vc.depth + 1)
                        got = router.injection_vc_for(packet)
                        want = roco_injection_oracle(router, packet)
                        assert _ids(got) == _ids(want), (router.node, dest, yx, state)
                    possible = router.injection_possible(packet)
                    want_possible = roco_injection_possible_oracle(router, packet)
                    assert possible == want_possible, (router.node, dest, yx, state)
        for vc in injection_vcs:
            vc.owner_pid, vc._available = None, vc.depth
    assert len(keys) == len(injection_table(TABLE1[mode], mode)) == 9 * 2
    net.teardown()
