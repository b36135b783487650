"""Static layout tables for the struct-of-arrays backend.

The SoA engine (repro.core.soa.engine) works on flat integer-indexed
state: routers are row-major node indices, VC buffers are global *slot*
ids, directions are their ``Direction`` int values and the early-eject
pseudo-target is ``EJECT_CODE``.  Everything structural — slot
numbering, neighbour wiring, admission candidates, injection orders,
route candidates — is derived here by introspecting a throwaway
*object-model* :class:`~repro.core.network.Network` built from the same
config.  That makes the tables correct by construction: the SoA engine
consults exactly the candidate lists and iteration orders the reference
implementation would compute, so any future change to VC configurations
or routing flows into the fast path automatically.

Slot numbering is the canonical enumeration order used everywhere
(engine, state bridge, conformance tests): routers in creation
(row-major) order, VCs within a router in ``all_vcs()`` order.

Admission/route tables are filled lazily — the throwaway network is
kept alive for the misses — and keyed by *direction class*, not by
destination: ``(router, input, sign(dx), sign(dy), yx)``.  On a mesh
(the only topology in the envelope) ``xy_direction``, ``yx_direction``,
``productive_directions``, RoCo's ``_is_final`` and ``dest == node``
read the destination through those two signs alone
(:func:`repro.routing.base.direction_class`), so every destination of a
class gets the answer the first one asked for.  That bounds the tables
at 9 classes x 2 variants per (router, input) — O(nodes), where
per-destination keys were O(nodes²) and never stopped missing on a
large mesh — while the build stays O(nodes) up front.
"""

from __future__ import annotations

from dataclasses import astuple

from repro.core.network import Network
from repro.core.types import CARDINALS, Direction, NodeId, Packet
from repro.routing.base import direction_class

#: Integer codes for the slot-state arrays.  ``NONE_CODE`` stands for
#: Python ``None`` (no route / no downstream VC / no owner);
#: ``EJECT_CODE`` is the early-ejection pseudo-target.
NONE_CODE = -1
EJECT_CODE = -2

#: ``int(Direction.LOCAL)`` — spelled out for the hot loops.
LOCAL = 4


class SoALayout:
    """Flattened structural view of one network configuration."""

    def __init__(self, config) -> None:
        self.config = config
        self.arch = config.router
        self.mode = config.routing
        self.width = config.width
        self.height = config.height
        self.N = config.num_nodes
        self.F = config.flits_per_packet
        net = Network(config)
        net.wire()
        self._net = net
        self.nodes: list[NodeId] = net.nodes
        self.node_index = {node: n for n, node in enumerate(self.nodes)}
        #: Per-node coordinates: all that the class-keyed routing tables
        #: below read of a destination.
        self._xs = [node.x for node in self.nodes]
        self._ys = [node.y for node in self.nodes]
        self._routers = net._router_list

        self.slot_of: dict[int, int] = {}
        self.router_slots: list[list[int]] = []
        self.slot_router: list[int] = []
        self.slot_pidx: list[int] = []
        self.slot_escape: list[bool] = []
        for n, router in enumerate(self._routers):
            slots = []
            for vc in router.all_vcs():
                s = len(self.slot_router)
                self.slot_of[id(vc)] = s
                self.slot_router.append(n)
                self.slot_pidx.append(vc.index)
                self.slot_escape.append(vc.escape)
                slots.append(s)
            self.router_slots.append(slots)
        self.S = len(self.slot_router)

        #: nbr[n][d] — node index of the neighbour in direction d, -1 at
        #: a mesh border.
        self.nbr: list[list[int]] = []
        for node in self.nodes:
            row = []
            for d in CARDINALS:
                other = net.neighbor_of(node, d)
                row.append(self.node_index[other] if other is not None else -1)
            self.nbr.append(row)

        if self.arch == "generic":
            #: gen_port_slots[n][d] — slots of input port d (0..4).
            self.gen_port_slots = [
                tuple(
                    tuple(self.slot_of[id(vc)] for vc in router.ports[Direction(d)])
                    for d in range(5)
                )
                for router in self._routers
            ]
            #: fc_slots[n][d] — downstream facing-port slots feeding the
            #: adaptive free-credit signal (empty tuple at a border).
            self.fc_slots = []
            for router in self._routers:
                per_dir = []
                for d in CARDINALS:
                    port = router.outputs.get(d)
                    if port is None:
                        per_dir.append(())
                    else:
                        per_dir.append(
                            tuple(
                                self.slot_of[id(vc)]
                                for vc in port.downstream.ports[port.input_dir]
                            )
                        )
                self.fc_slots.append(tuple(per_dir))
        else:
            #: roco_ports[n][module][port] — slots in the allocate-phase
            #: walk order (modules dict order: ROW then COLUMN; ports 0
            #: then 1).  This *interleaves* differently from slot order,
            #: which follows the Table-1 spec order of ``all_vcs()``.
            self.roco_ports = [
                tuple(
                    tuple(
                        tuple(self.slot_of[id(vc)] for vc in port_vcs)
                        for port_vcs in module.ports
                    )
                    for module in router.modules.values()
                )
                for router in self._routers
            ]
            #: Output direction of crossbar slot 0 per module (slot 1 is
            #: the opposite): EAST for the Row-Module, NORTH for Column.
            self.mod_slot0_dir = (int(Direction.EAST), int(Direction.NORTH))
        #: bit_slot[n] — router n's slots in allocate-phase walk order
        #: (generic: input ports 0..4; RoCo: ``roco_ports`` order).  The
        #: engine's occupancy mask gives walk position i bit ``1 << i``,
        #: which slot_bitmask[s] holds for every slot.
        if self.arch == "generic":
            walks = [
                tuple(s for port in ports for s in port)
                for ports in self.gen_port_slots
            ]
        else:
            walks = [
                tuple(s for module in modules for port in module for s in port)
                for modules in self.roco_ports
            ]
        self.bit_slot: tuple[tuple[int, ...], ...] = tuple(walks)
        bitmask = [0] * self.S
        for walk in walks:
            for i, s in enumerate(walk):
                bitmask[s] = 1 << i
        self.slot_bitmask: tuple[int, ...] = tuple(bitmask)
        if self.arch == "generic":
            #: gen_adm[m][d] — VC-allocation candidates ``(target,
            #: route)`` for a flit entering router m on input d: every VC
            #: of that port, route computed locally (None).
            self.gen_adm = tuple(
                tuple(tuple((t, NONE_CODE) for t in port) for port in ports)
                for ports in self.gen_port_slots
            )
        self.mirror = config.router_config.mirror_allocation
        self.lookahead = config.router_config.lookahead_routing
        self.vcs_per_port = config.router_config.vcs_per_port

        self._cand: dict[int, tuple] = {}
        self._inj: dict[int, tuple] = {}
        self._routes: dict[int, tuple] = {}
        self._escape: dict[int, int] = {}

    # ------------------------------------------------------------------

    def _class_key(self, n: int, dest: int) -> int:
        """``(router, direction class of dest seen from it)`` as one int."""
        xs, ys = self._xs, self._ys
        return n * 9 + direction_class(xs[dest] - xs[n], ys[dest] - ys[n])

    def _fake_packet(self, src: int, dest: int, yx: int) -> Packet:
        packet = Packet(
            pid=-1,
            src=self.nodes[src],
            dest=self.nodes[dest],
            size=self.F,
            created_cycle=0,
        )
        packet.yx_first = bool(yx)
        return packet

    def roco_admission(self, m: int, din: int, dest: int, yx: int) -> tuple:
        """Downstream admission candidates, exactly as ``vc_candidates``.

        Returns ``((target, route), ...)`` with ``target`` a slot id or
        :data:`EJECT_CODE` and ``route`` the committed look-ahead
        direction int at router ``m`` — in the object model's candidate
        order, which the VC allocator's first-wins tie-break depends on.
        """
        key = (self._class_key(m, dest) * 4 + din) * 2 + yx
        entries = self._cand.get(key)
        if entries is None:
            raw = self._routers[m].vc_candidates(
                Direction(din), self._fake_packet(m, dest, yx)
            )
            entries = tuple(
                (
                    EJECT_CODE
                    if route is Direction.LOCAL
                    else self.slot_of[id(target)],
                    int(route),
                )
                for target, route in raw
            )
            self._cand[key] = entries
        return entries

    def roco_injection(self, n: int, dest: int, yx: int) -> tuple:
        """Injection-VC candidates of ``injection_vc_for``, in scan order.

        Credit/ownership checks happen at run time; this is only the
        structural iteration order (route-major, then ``all_vcs()``
        filtered by the Injxy/Injyx class).
        """
        key = self._class_key(n, dest) * 2 + yx
        entries = self._inj.get(key)
        if entries is None:
            router = self._routers[n]
            packet = self._fake_packet(n, dest, yx)
            built = []
            for route in self._net.routing.candidates(router.node, packet):
                module = router.module_for(route)
                cls = "injxy" if route.is_row else "injyx"
                for vc in module.all_vcs():
                    if vc.vc_class == cls:
                        built.append((self.slot_of[id(vc)], int(route)))
            entries = tuple(built)
            self._inj[key] = entries
        return entries

    def route_candidates(self, n: int, dest: int, yx: int) -> tuple:
        """``routing.candidates`` as direction ints (adaptive: escape first)."""
        key = self._class_key(n, dest) * 2 + yx
        entries = self._routes.get(key)
        if entries is None:
            entries = tuple(
                int(d)
                for d in self._net.routing.candidates(
                    self.nodes[n], self._fake_packet(n, dest, yx)
                )
            )
            self._routes[key] = entries
        return entries

    def escape_route(self, n: int, dest: int) -> int:
        """``routing.escape_direction`` (generic adaptive escape VCs)."""
        key = self._class_key(n, dest)
        route = self._escape.get(key)
        if route is None:
            route = int(
                self._net.routing.escape_direction(
                    self.nodes[n], self._fake_packet(n, dest, 0)
                )
            )
            self._escape[key] = route
        return route

    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """Summary used by docs/tests (slot counts, table sizes)."""
        return {
            "arch": self.arch,
            "nodes": self.N,
            "slots": self.S,
            "slots_per_router": self.S // self.N,
            "flits_per_packet": self.F,
            "tables": {
                "admission": len(self._cand),
                "injection": len(self._inj),
                "routes": len(self._routes),
                "escape": len(self._escape),
            },
        }


#: Layouts are pure structural tables (plus lazily-growing pure caches),
#: so instances are shared across simulator runs keyed by every config
#: field the tables are derived from.  Seed, traffic and rates are
#: deliberately absent — they never reach the wiring or routing tables.
_layout_cache: dict[tuple, SoALayout] = {}


def build_layout(config) -> SoALayout:
    key = (
        config.router,
        config.topology,
        config.routing,
        config.width,
        config.height,
        config.flits_per_packet,
        astuple(config.router_config),
    )
    layout = _layout_cache.get(key)
    if layout is None:
        layout = _layout_cache[key] = SoALayout(config)
    return layout
