"""The SoA layout's class-keyed routing tables against the object model.

``SoALayout`` answers "which VCs admit this flit, and on which route"
from tables built once, off a 3x3 prototype, and indexed by the
direction class of the destination
(:func:`repro.routing.base.direction_class`) plus the input and yx
bits — never by router or destination.  These tests hold every answer
the engine reads — at any router, for any destination — to a fresh
call on an object-model network the layout never saw, hold the tables
to being the same on every mesh, and hold a run to asking nothing of
the prototype.

The layout reads its structural tables off the prototype too, not the
mesh it describes; they are held to the tables read off a whole wired
network of that mesh (:func:`reference_tables`), and a layout of any
size is held to building nine routers.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RouterConfig, SimulationConfig
from repro.core.network import Network
from repro.core.simulator import run_simulation
from repro.core.soa import layout as layout_module
from repro.core.soa.engine import SoASimulator
from repro.core.soa.layout import EJECT_CODE, SoALayout
from repro.core.soa.state import _object_tables
from repro.core.types import CARDINALS, Direction, Packet
from repro.harness.export import result_record
from repro.routers.base import BaseRouter
from repro.routers.roco.router import RoCoRouter
from repro.routing import (
    AdaptiveRouting,
    RoutingAlgorithm,
    XYRouting,
    XYYXRouting,
    direction_class,
)

MESHES = ((4, 4), (5, 3), (3, 6))
ROUTERS = ("roco", "generic")
ROUTINGS = ("xy", "xy-yx", "adaptive")


def mesh_config(width: int, height: int, router: str, routing: str, **fields):
    return SimulationConfig(
        width=width, height=height, router=router, routing=routing, **fields
    )


class Oracle:
    """A fresh object-model network, asked the way the engine would ask."""

    def __init__(self, config) -> None:
        self.net = Network(config)
        self.net.wire()
        self.nodes = self.net.nodes
        self.routers = self.net._router_list
        #: id(vc) -> global slot, in the canonical numbering.
        self.slot = _object_tables(self.net)[0]
        self.size = config.flits_per_packet

    def packet(self, src: int, dest: int, yx: int) -> Packet:
        packet = Packet(-1, self.nodes[src], self.nodes[dest], self.size, 0)
        packet.yx_first = bool(yx)
        return packet

    def admission(self, m: int, din: int, dest: int, yx: int) -> tuple:
        return tuple(
            (
                EJECT_CODE if route is Direction.LOCAL else self.slot[id(vc)],
                int(route),
            )
            for vc, route in self.routers[m].vc_candidates(
                Direction(din), self.packet(m, dest, yx)
            )
        )

    def injection(self, n: int, dest: int, yx: int) -> tuple:
        """The scan order of ``injection_vc_for``, observed from outside:
        with every credit count equal it returns the first injectable VC
        of its scan, so claiming each answer in turn walks the scan."""
        router, packet = self.routers[n], self.packet(n, dest, yx)
        order = []
        while (best := router.injection_vc_for(packet)) is not None:
            vc, route = best
            order.append((vc, int(route)))
            vc.owner_pid = 0
        for vc, _ in order:
            vc.owner_pid = None
        return tuple((self.slot[id(vc)], route) for vc, route in order)

    def routes(self, n: int, dest: int, yx: int) -> tuple:
        return tuple(
            int(d)
            for d in self.net.routing.candidates(
                self.nodes[n], self.packet(n, dest, yx)
            )
        )

    def escape(self, n: int, dest: int) -> int:
        return int(
            self.net.routing.escape_direction(
                self.nodes[n], self.packet(n, dest, 0)
            )
        )


#: The routing tables each architecture builds.
TABLES = {"roco": ("admission", "injection"), "generic": ("routes", "escape")}


def admission(lay, m: int, din: int, dest: int, yx: int) -> tuple:
    """The admission candidates the engine reads, as global slots."""
    base = m * lay.R
    return tuple(
        (t if t == EJECT_CODE else base + t, route)
        for t, route in lay.admission[(lay.class_of(m, dest) * 4 + din) * 2 + yx]
    )


def injection(lay, n: int, dest: int, yx: int) -> tuple:
    base = n * lay.R
    return tuple(
        (base + i, route)
        for i, route in lay.injection[lay.class_of(n, dest) * 2 + yx]
    )


def routes(lay, n: int, dest: int, yx: int) -> tuple:
    return lay.routes[lay.class_of(n, dest) * 2 + yx]


def escape(lay, n: int, dest: int) -> int:
    (route,) = lay.escape[lay.class_of(n, dest)]
    return route


def test_direction_class_is_the_sign_pair():
    signs = {}
    for dx, dy in itertools.product(range(-3, 4), repeat=2):
        key = ((dx > 0) - (dx < 0), (dy > 0) - (dy < 0))
        assert signs.setdefault(direction_class(dx, dy), key) == key
    assert sorted(signs) == list(range(9))
    assert direction_class(0, 0) == 4


@pytest.mark.parametrize("routing", ROUTINGS)
@pytest.mark.parametrize("router", ROUTERS)
@pytest.mark.parametrize("width,height", MESHES, ids=lambda v: str(v))
def test_every_lookup_equals_a_fresh_object_model_call(width, height, router, routing):
    """Exhaustive: every (router, input, destination, yx)."""
    config = mesh_config(width, height, router, routing)
    lay = SoALayout(config)  # private: not the process-wide shared one
    oracle = Oracle(config)
    for n, dest, yx in itertools.product(range(lay.N), range(lay.N), (0, 1)):
        if router == "generic":
            assert routes(lay, n, dest, yx) == oracle.routes(n, dest, yx)
            assert escape(lay, n, dest) == oracle.escape(n, dest)
            continue
        if dest != n:
            assert injection(lay, n, dest, yx) == oracle.injection(n, dest, yx)
        for din in range(4):
            assert admission(lay, n, din, dest, yx) == oracle.admission(
                n, din, dest, yx
            ), (n, din, dest, yx)


@functools.lru_cache(maxsize=None)
def mesh16(router: str, routing: str):
    config = mesh_config(16, 16, router, routing)
    return SoALayout(config), Oracle(config)


_node = st.integers(min_value=0, max_value=255)


@pytest.mark.parametrize("routing", ROUTINGS)
@pytest.mark.parametrize("router", ROUTERS)
@settings(max_examples=150, deadline=None)
@given(n=_node, dest=_node, din=st.integers(0, 3), yx=st.integers(0, 1))
def test_lookups_at_16x16(router, routing, n, dest, din, yx):
    lay, oracle = mesh16(router, routing)
    if router == "generic":
        assert routes(lay, n, dest, yx) == oracle.routes(n, dest, yx)
        assert escape(lay, n, dest) == oracle.escape(n, dest)
        return
    assert admission(lay, n, din, dest, yx) == oracle.admission(n, din, dest, yx)
    if dest != n:
        assert injection(lay, n, dest, yx) == oracle.injection(n, dest, yx)


@pytest.mark.parametrize("router", ROUTERS)
def test_routing_tables_are_the_same_on_every_mesh(router):
    """Nine classes, not N routers: a 4x4 and a 64x64 layout of one
    shape hold equal routing tables, of the sizes the class key gives."""
    small, large = (
        SoALayout(mesh_config(size, size, router, "adaptive")) for size in (4, 64)
    )
    sizes = {"admission": 72, "injection": 18, "routes": 18, "escape": 9}
    for name in TABLES[router]:
        assert getattr(small, name) == getattr(large, name), name
        assert len(getattr(small, name)) == sizes[name], name


@pytest.mark.parametrize(
    "router,routing", (("roco", "xy"), ("roco", "xy-yx"), ("generic", "adaptive"))
)
def test_a_run_asks_the_prototype_nothing(monkeypatch, router, routing):
    """Once the layout is built, a 16x16 SoA run reads its tables only:
    every question a miss used to ask the prototype now raises."""
    monkeypatch.setattr(layout_module, "_layout_cache", {})
    config = mesh_config(
        16, 16, router, routing, injection_rate=0.1, warmup_packets=100,
        measure_packets=600, backend="soa",
    )
    layout_module.build_layout(config)

    def asked(*args, **kwargs):
        raise AssertionError("the prototype was asked during a run")

    for owner, name in (
        (layout_module, "_prototype"),
        (layout_module, "_packet"),
        (RoCoRouter, "vc_candidates"),
        (RoCoRouter, "module_for"),
        (RoutingAlgorithm, "escape_direction"),
        *((cls, "candidates") for cls in (XYRouting, XYYXRouting, AdaptiveRouting)),
    ):
        monkeypatch.setattr(owner, name, asked)
    result = SoASimulator(config).run()
    assert result.delivered_packets > 0


def reference_tables(config) -> dict:
    """Every structural table, read off a whole wired object network of
    ``config``'s mesh — the layout's derivation before it read a 3x3
    prototype."""
    net = Network(config)
    net.wire()
    slot, _vcs, node_index = _object_tables(net)
    routers = net._router_list
    tables = {
        "nodes": net.nodes,
        "node_index": node_index,
        "router_slots": [[slot[id(vc)] for vc in r.all_vcs()] for r in routers],
        "slot_router": [n for n, r in enumerate(routers) for _ in r.all_vcs()],
        "slot_pidx": [vc.index for r in routers for vc in r.all_vcs()],
        "slot_escape": [vc.escape for r in routers for vc in r.all_vcs()],
        "nbr": [
            [
                -1 if (other := net.neighbor_of(node, d)) is None else node_index[other]
                for d in CARDINALS
            ]
            for node in net.nodes
        ],
    }
    if config.router == "generic":
        ports = tables["gen_port_slots"] = [
            tuple(tuple(slot[id(vc)] for vc in r.ports[Direction(d)]) for d in range(5))
            for r in routers
        ]
        tables["fc_slots"] = [
            tuple(
                ()
                if (port := r.outputs.get(d)) is None
                else tuple(slot[id(vc)] for vc in port.downstream.ports[port.input_dir])
                for d in CARDINALS
            )
            for r in routers
        ]
        tables["gen_adm"] = tuple(
            tuple(tuple((t, -1) for t in port) for port in router_ports)
            for router_ports in ports
        )
        walks = [
            tuple(s for port in router_ports for s in port) for router_ports in ports
        ]
    else:
        modules = tables["roco_ports"] = [
            tuple(
                tuple(tuple(slot[id(vc)] for vc in port) for port in module.ports)
                for module in r.modules.values()
            )
            for r in routers
        ]
        walks = [
            tuple(s for module in router_modules for port in module for s in port)
            for router_modules in modules
        ]
    tables["bit_slot"] = tuple(walks)
    bitmask = [0] * len(slot)
    for walk in walks:
        for i, s in enumerate(walk):
            bitmask[s] = 1 << i
    tables["slot_bitmask"] = tuple(bitmask)
    return tables


ABLATIONS = {
    "default": {},
    "no-mirror": {"mirror_allocation": False},
    "no-lookahead": {"lookahead_routing": False},
}


@pytest.mark.parametrize("ablation", ABLATIONS)
@pytest.mark.parametrize("routing", ROUTINGS)
@pytest.mark.parametrize("router", ROUTERS)
@pytest.mark.parametrize(
    "width,height", ((2, 2), *MESHES, (8, 8)), ids=lambda v: str(v)
)
def test_structural_tables_equal_a_whole_network(
    width, height, router, routing, ablation
):
    router_config = RouterConfig.for_architecture(router, **ABLATIONS[ablation])
    config = mesh_config(width, height, router, routing, router_config=router_config)
    lay = SoALayout(config)
    reference = reference_tables(config)
    for name, table in reference.items():
        ours = getattr(lay, name)
        assert type(ours) is type(table), name
        assert ours == table, name
    assert (lay.N, lay.S) == (width * height, len(reference["slot_router"]))
    assert lay.mirror == router_config.mirror_allocation
    assert lay.lookahead == router_config.lookahead_routing


@pytest.mark.parametrize(
    "fields",
    (
        # The power-of-two rule of a bit permutation rejects a 3x3 copy
        # of this config: the prototype must not be one.
        dict(width=8, height=8, traffic="bit_complement"),
        # A mesh smaller than the prototype.
        dict(width=2, height=2, routing="adaptive"),
    ),
    ids=("8x8-bit_complement", "2x2"),
)
@pytest.mark.parametrize("router", ROUTERS)
def test_the_prototype_reads_only_the_layout_key(monkeypatch, router, fields):
    monkeypatch.setattr(layout_module, "_layout_cache", {})
    config = SimulationConfig(
        router=router, injection_rate=0.1, warmup_packets=40, measure_packets=200,
        **fields,
    )
    soa = run_simulation(replace(config, backend="soa"))
    assert result_record(soa) == result_record(run_simulation(config))


def test_a_layout_builds_nine_routers_at_any_size(monkeypatch):
    """A 64x64 layout, built and asked, constructs only the prototype."""
    monkeypatch.setattr(layout_module, "_layout_cache", {})
    built = []
    init = BaseRouter.__init__

    def counted(router, node, network):
        built.append(node)
        init(router, node, network)

    monkeypatch.setattr(BaseRouter, "__init__", counted)
    for router in ROUTERS:
        built.clear()
        lay = layout_module.build_layout(mesh_config(64, 64, router, "adaptive"))
        assert lay.N == 4096
        corner = lay.N - 1
        if router == "roco":
            assert admission(lay, 0, 3, corner, 0)
            assert injection(lay, 0, corner, 0)
        else:
            assert routes(lay, 0, corner, 0) == (1, 2)
        assert 0 < len(built) <= 9, router
