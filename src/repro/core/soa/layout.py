"""Static layout tables for the struct-of-arrays backend.

The SoA engine (repro.core.soa.engine) works on flat integer-indexed
state: routers are row-major node indices, VC buffers are global *slot*
ids, directions are their ``Direction`` int values and the early-eject
pseudo-target is ``EJECT_CODE``.  Everything structural — slot
numbering, neighbour wiring, admission candidates, injection orders,
route candidates — is derived here from mesh arithmetic plus one
*prototype*: a 3x3 object-model :class:`~repro.core.network.Network`
of the same router architecture, routing, packet size and router
config, built from the layout key (:func:`layout_key`) alone, whatever
the mesh size.  The SoA engine therefore consults exactly the
candidate lists and iteration orders the reference implementation
would compute, so any change to VC configurations or routing flows
into the fast path automatically.

Slot numbering is the canonical enumeration order used everywhere
(engine, state bridge, conformance tests): routers in creation
(row-major) order, VCs within a router in ``all_vcs()`` order.  Every
router of a mesh holds the same VCs in the same order (15 generic, 12
RoCo), so router n's VC i is slot ``n * R + i``; what VC i is — its
port, module, index and escape flag — is read off the prototype's
centre router once.

Admission/route tables are filled lazily and keyed by *direction
class*, not by destination: ``(router, input, sign(dx), sign(dy),
yx)``.  On a mesh (the only topology in the envelope) ``xy_direction``,
``yx_direction``, ``productive_directions``, RoCo's ``_is_final`` and
``dest == node`` read the destination through those two signs alone
(:func:`repro.routing.base.direction_class`), so every destination of a
class gets the same answer at every router, up to the slot offset.  A
miss asks the prototype's centre router (1, 1), which sees a
destination of each of the nine classes — ``(1 + sign dx, 1 + sign
dy)`` — and maps the VCs it names back to router m by position.  That
bounds the tables at 9 classes x 2 variants per (router, input) — O(nodes),
where per-destination keys were O(nodes²) and never stopped missing on
a large mesh — while the build stays O(nodes) and constructs nine
routers at any size.
"""

from __future__ import annotations

from dataclasses import astuple

from repro.core.config import RouterConfig, SimulationConfig
from repro.core.network import Network
from repro.core.soa.errors import BackendUnsupportedError
from repro.core.types import CARDINALS, OPPOSITE, Direction, NodeId, Packet
from repro.routing.base import direction_class

#: Integer codes for the slot-state arrays.  ``NONE_CODE`` stands for
#: Python ``None`` (no route / no downstream VC / no owner);
#: ``EJECT_CODE`` is the early-ejection pseudo-target.
NONE_CODE = -1
EJECT_CODE = -2

#: ``int(Direction.LOCAL)`` — spelled out for the hot loops.
LOCAL = 4

#: The prototype's centre: in a 3x3 mesh it sees a destination of every
#: direction class.
CENTRE = NodeId(1, 1)


def layout_key(config) -> tuple:
    """Every config field the layout is derived from, as a hashable key.

    Seed, traffic and rates are deliberately absent — they never reach
    the wiring or routing tables.
    """
    return (
        config.router,
        config.topology,
        config.routing,
        config.width,
        config.height,
        config.flits_per_packet,
        astuple(config.router_config),
    )


def _prototype(key: tuple) -> Network:
    """The 3x3 network of ``key``'s routers, built from the key alone: a
    config field the layout never reads (traffic, rates, sizes that only
    suit the real mesh) cannot reject it."""
    router, topology, routing, _width, _height, flits, router_config = key
    if topology != "mesh":
        raise BackendUnsupportedError(f"topology={topology!r}")
    return Network(
        SimulationConfig(
            width=3,
            height=3,
            router=router,
            routing=routing,
            flits_per_packet=flits,
            router_config=RouterConfig(*router_config),
        )
    )


class SoALayout:
    """Flattened structural view of one network configuration."""

    def __init__(self, config) -> None:
        key = layout_key(config)
        self.arch, _topology, self.mode, W, H, self.F, _ = key
        self.width, self.height = W, H
        N = self.N = W * H
        net = _prototype(key)
        #: The prototype's routing and centre router: what a miss asks.
        self._routing = net.routing
        self._centre = centre = net.routers[CENTRE]
        vcs = centre.all_vcs()
        R = len(vcs)
        #: id(vc) -> position in ``all_vcs()``, for the centre's VCs.
        self._pos = pos = {id(vc): i for i, vc in enumerate(vcs)}

        #: Row-major, as the object model builds its routers.
        self.nodes: list[NodeId] = [NodeId(x, y) for y in range(H) for x in range(W)]
        self.node_index = {node: n for n, node in enumerate(self.nodes)}
        #: Per-node coordinates: all that the class-keyed routing tables
        #: below read of a destination.
        self._xs = [n % W for n in range(N)]
        self._ys = [n // W for n in range(N)]

        #: Router n owns slots ``n * R`` to ``n * R + R - 1``.
        self._R = R
        self.S = S = N * R
        self.router_slots: list[list[int]] = [
            list(range(base, base + R)) for base in range(0, S, R)
        ]
        self.slot_router: list[int] = [n for n in range(N) for _ in range(R)]
        self.slot_pidx: list[int] = [vc.index for vc in vcs] * N
        self.slot_escape: list[bool] = [vc.escape for vc in vcs] * N

        #: nbr[n][d] — node index of the neighbour in direction d
        #: (CARDINALS order), -1 at a mesh border.
        self.nbr: list[list[int]] = [
            [
                n - W if y else -1,
                n + 1 if x + 1 < W else -1,
                n + W if y + 1 < H else -1,
                n - 1 if x else -1,
            ]
            for n, x, y in zip(range(N), self._xs, self._ys)
        ]

        if self.arch == "generic":
            #: The centre's input ports 0..4 as VC positions.
            ports = tuple(
                tuple(pos[id(vc)] for vc in centre.ports[Direction(d)])
                for d in range(5)
            )
            #: gen_port_slots[n][d] — slots of input port d (0..4).
            self.gen_port_slots = [
                tuple(tuple(base + i for i in port) for port in ports)
                for base in range(0, S, R)
            ]
            #: fc_slots[n][d] — downstream facing-port slots feeding the
            #: adaptive free-credit signal (empty tuple at a border).
            facing = [ports[OPPOSITE[d]] for d in CARDINALS]
            self.fc_slots = [
                tuple(
                    () if m < 0 else tuple(m * R + i for i in facing[d])
                    for d, m in enumerate(row)
                )
                for row in self.nbr
            ]
            #: gen_adm[m][d] — VC-allocation candidates ``(target,
            #: route)`` for a flit entering router m on input d: every VC
            #: of that port, route computed locally (None).
            self.gen_adm = tuple(
                tuple(tuple((t, NONE_CODE) for t in port) for port in router_ports)
                for router_ports in self.gen_port_slots
            )
            walk = [i for port in ports for i in port]
        else:
            #: The centre's modules (dict order: ROW then COLUMN) and
            #: their ports 0 then 1, as VC positions.
            modules = tuple(
                tuple(tuple(pos[id(vc)] for vc in port) for port in module.ports)
                for module in centre.modules.values()
            )
            #: roco_ports[n][module][port] — slots in the allocate-phase
            #: walk order.  This *interleaves* differently from slot order,
            #: which follows the Table-1 spec order of ``all_vcs()``.
            self.roco_ports = [
                tuple(
                    tuple(tuple(base + i for i in port) for port in module)
                    for module in modules
                )
                for base in range(0, S, R)
            ]
            #: Output direction of crossbar slot 0 per module (slot 1 is
            #: the opposite): EAST for the Row-Module, NORTH for Column.
            self.mod_slot0_dir = (int(Direction.EAST), int(Direction.NORTH))
            walk = [i for module in modules for port in module for i in port]
        #: bit_slot[n] — router n's slots in allocate-phase walk order
        #: (generic: input ports 0..4; RoCo: ``roco_ports`` order).  The
        #: engine's occupancy mask gives walk position i bit ``1 << i``,
        #: which slot_bitmask[s] holds for every slot.
        self.bit_slot: tuple[tuple[int, ...], ...] = tuple(
            tuple(base + i for i in walk) for base in range(0, S, R)
        )
        bitmask = [0] * R
        for bit, i in enumerate(walk):
            bitmask[i] = 1 << bit
        self.slot_bitmask: tuple[int, ...] = tuple(bitmask) * N
        router_config = centre.config
        self.mirror = router_config.mirror_allocation
        self.lookahead = router_config.lookahead_routing
        self.vcs_per_port = router_config.vcs_per_port

        self._cand: dict[int, tuple] = {}
        self._inj: dict[int, tuple] = {}
        self._routes: dict[int, tuple] = {}
        self._escape: dict[int, int] = {}

    # ------------------------------------------------------------------

    def _class(self, n: int, dest: int) -> int:
        """The direction class of ``dest`` seen from router ``n``."""
        xs, ys = self._xs, self._ys
        return direction_class(xs[dest] - xs[n], ys[dest] - ys[n])

    def _fake_packet(self, cls: int, yx: int) -> Packet:
        """A packet at the centre bound for the prototype node of ``cls``."""
        packet = Packet(
            pid=-1,
            src=CENTRE,
            dest=NodeId(*divmod(cls, 3)),
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
        cls = self._class(m, dest)
        key = ((m * 9 + cls) * 4 + din) * 2 + yx
        entries = self._cand.get(key)
        if entries is None:
            base, pos = m * self._R, self._pos
            raw = self._centre.vc_candidates(
                Direction(din), self._fake_packet(cls, yx)
            )
            entries = tuple(
                (
                    EJECT_CODE if route is Direction.LOCAL else base + pos[id(target)],
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
        cls = self._class(n, dest)
        key = (n * 9 + cls) * 2 + yx
        entries = self._inj.get(key)
        if entries is None:
            base, pos, centre = n * self._R, self._pos, self._centre
            built = []
            for route in self._routing.candidates(
                CENTRE, self._fake_packet(cls, yx)
            ):
                module = centre.module_for(route)
                vc_class = "injxy" if route.is_row else "injyx"
                for vc in module.all_vcs():
                    if vc.vc_class == vc_class:
                        built.append((base + pos[id(vc)], int(route)))
            entries = tuple(built)
            self._inj[key] = entries
        return entries

    def route_candidates(self, n: int, dest: int, yx: int) -> tuple:
        """``routing.candidates`` as direction ints (adaptive: escape first)."""
        cls = self._class(n, dest)
        key = (n * 9 + cls) * 2 + yx
        entries = self._routes.get(key)
        if entries is None:
            entries = tuple(
                int(d)
                for d in self._routing.candidates(
                    CENTRE, self._fake_packet(cls, yx)
                )
            )
            self._routes[key] = entries
        return entries

    def escape_route(self, n: int, dest: int) -> int:
        """``routing.escape_direction`` (generic adaptive escape VCs)."""
        cls = self._class(n, dest)
        key = n * 9 + cls
        route = self._escape.get(key)
        if route is None:
            route = int(
                self._routing.escape_direction(CENTRE, self._fake_packet(cls, 0))
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
#: so instances are shared across simulator runs, keyed by
#: :func:`layout_key`.
_layout_cache: dict[tuple, SoALayout] = {}


def build_layout(config) -> SoALayout:
    key = layout_key(config)
    layout = _layout_cache.get(key)
    if layout is None:
        layout = _layout_cache[key] = SoALayout(config)
    return layout
