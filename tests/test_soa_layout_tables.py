"""The SoA layout's class-keyed routing tables against the object model.

``SoALayout`` answers "which VCs admit this flit, and on which route"
from tables keyed by ``(router, input, direction class of the
destination, yx)`` (:func:`repro.routing.base.direction_class`) and
filled on a miss by one destination of the class.  These tests hold
every answer *served* — to any destination of the class, in any query
order — to a fresh call on an object-model network the layout never
saw, and hold the tables to the bound the key gives them.

The layout reads its structural tables off a 3x3 prototype network, not
the mesh it describes; they are held to the tables read off a whole
wired network of that mesh (:func:`reference_tables`), and a layout of
any size is held to building nine routers.
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
from repro.routing import direction_class

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
    N = lay.N
    for n, dest, yx in itertools.product(range(N), range(N), (0, 1)):
        assert lay.route_candidates(n, dest, yx) == oracle.routes(n, dest, yx)
        assert lay.escape_route(n, dest) == oracle.escape(n, dest)
        if router != "roco":
            continue
        if dest != n:
            assert lay.roco_injection(n, dest, yx) == oracle.injection(n, dest, yx)
        for din in range(4):
            assert lay.roco_admission(n, din, dest, yx) == oracle.admission(
                n, din, dest, yx
            ), (n, din, dest, yx)
    sizes = lay.describe()["tables"]
    assert sizes["routes"] <= N * 9 * 2 and sizes["escape"] <= N * 9
    if router == "roco":
        assert sizes["admission"] <= N * 4 * 9 * 2
        assert sizes["injection"] <= N * 9 * 2


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
    assert lay.route_candidates(n, dest, yx) == oracle.routes(n, dest, yx)
    assert lay.escape_route(n, dest) == oracle.escape(n, dest)
    if router == "roco":
        assert lay.roco_admission(n, din, dest, yx) == oracle.admission(
            n, din, dest, yx
        )
        if dest != n:
            assert lay.roco_injection(n, dest, yx) == oracle.injection(n, dest, yx)


def test_tables_are_bounded_by_the_class_key(monkeypatch):
    """24 seeds of 16x16 RoCo/XY: at most N*5*9 entries, and saturating.

    Four inputs plus the injection port, nine classes; ``yx`` is
    constant under XY and the generic-only tables stay empty.  A key is
    filled the first time a worm meets it, and the rarest ones (one
    source, one destination) are met once in 10^5 packets, so fresh
    seeds keep adding a few — but ever fewer, inside the bound, where
    per-destination keys held 59,483 entries after these 24 runs and
    were still adding ~1,500 a seed.
    """
    monkeypatch.setattr(layout_module, "_layout_cache", {})
    totals = []
    for seed in range(24):
        config = mesh_config(
            16,
            16,
            "roco",
            "xy",
            injection_rate=0.10,
            warmup_packets=100,
            measure_packets=600,
            seed=seed,
            backend="soa",
        )
        sim = SoASimulator(config)
        sim.run()
        sizes = sim.layout.describe()["tables"]
        totals.append(sum(sizes.values()))
    assert sizes["routes"] == sizes["escape"] == 0
    assert totals[-1] <= sim.N * 5 * 9 == 11_520
    assert totals == sorted(totals)
    assert totals[23] - totals[15] < totals[7] // 10


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
        assert lay.route_candidates(0, corner, 0) == (1, 2)
        if router == "roco":
            assert lay.roco_admission(0, 3, corner, 0)
            assert lay.roco_injection(0, corner, 0)
        assert 0 < len(built) <= 9, router
