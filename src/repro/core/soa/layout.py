"""Static layout tables for the struct-of-arrays backend.

The SoA engine (repro.core.soa.engine) works on flat integer-indexed
state: routers are row-major node indices, VC buffers are global *slot*
ids, directions are their ``Direction`` int values and the early-eject
pseudo-target is ``EJECT_CODE``.  Everything structural — slot
numbering, neighbour wiring, admission candidates, injection orders,
route candidates — is derived here from mesh arithmetic, the shared
admission table and one *prototype*: a 3x3 object-model
:class:`~repro.core.network.Network` of the same router architecture,
routing, packet size and router config, built from the layout key
(:func:`layout_key`) alone, whatever the mesh size.  The SoA engine therefore consults exactly the
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

The routing tables are keyed by *direction class*, not by router or
destination.  On a mesh (the only topology in the envelope)
``xy_direction``, ``yx_direction``, ``productive_directions``, RoCo's
final-dimension test and ``dest == node`` read the destination through
the signs of ``(dx, dy)`` alone (:func:`repro.routing.base.direction_class`,
nine values), so every router gives every destination of a class the
same answer, up to the slot offset ``m * R``.  RoCo's admission by
``(class, input, yx)`` (72 entries) is the cardinal-input part of the
table the object-model routers read (repro.routers.admission).  For the
rest, the prototype's centre router (1, 1) sees a destination of each
class — ``(1 + sign dx, 1 + sign dy)`` — so ``__init__`` asks it every
question once and stores the VCs it names as positions: injection and
routes by ``(class, yx)`` (18 each), escape by class (9).  The tables
are the same size on every mesh, and nothing a run does adds to them.
"""

from __future__ import annotations

from dataclasses import astuple

from repro.core.config import RouterConfig, SimulationConfig
from repro.core.network import Network
from repro.core.soa.errors import BackendUnsupportedError
from repro.core.types import CARDINALS, EAST, NORTH, Direction, NodeId, Packet
from repro.routers.admission import admission_index, admission_table, injection_table
from repro.routers.base import EJECT
from repro.routers.roco.path_set import TABLE1
from repro.routing.base import direction_class

#: Integer codes for the slot-state arrays.  ``NONE_CODE`` stands for
#: Python ``None`` (no route / no downstream VC / no owner);
#: ``EJECT_CODE`` is the early-ejection pseudo-target.
NONE_CODE = -1
EJECT_CODE = -2

#: ``int(repro.core.types.LOCAL)`` — a plain int for the hot loops.
LOCAL = 4

#: The prototype's centre: in a 3x3 mesh it sees a destination of every
#: direction class.
CENTRE = NodeId(1, 1)


def layout_key(config) -> tuple:
    """Every config field the layout is derived from, as a hashable key,
    and RoCo's VC table (its ``TABLE1`` entry, read now; None for
    generic).

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
        TABLE1[config.routing] if config.router == "roco" else None,
    )


def _prototype(key: tuple) -> Network:
    """The 3x3 network of ``key``'s routers, built from the key alone: a
    config field the layout never reads (traffic, rates, sizes that only
    suit the real mesh) cannot reject it."""
    router, topology, routing, _width, _height, flits, router_config, _specs = key
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


def _packet(dest: tuple[int, int], size: int, yx: int) -> Packet:
    """A packet at the prototype's centre bound for ``dest``."""
    packet = Packet(pid=-1, src=CENTRE, dest=NodeId(*dest), size=size, created_cycle=0)
    packet.yx_first = bool(yx)
    return packet


class SoALayout:
    """Flattened structural view of one network configuration."""

    def __init__(self, config) -> None:
        key = layout_key(config)
        self.arch, _topology, self.mode, W, H, self.F, _, specs = key
        self.width, self.height = W, H
        N = self.N = W * H
        net = _prototype(key)
        centre = net.routers[CENTRE]
        vcs = centre.all_vcs()
        R = self.R = len(vcs)
        #: id(vc) -> position in ``all_vcs()``, for the centre's VCs.
        pos = {id(vc): i for i, vc in enumerate(vcs)}

        #: Row-major, as the object model builds its routers.
        self.nodes: list[NodeId] = [NodeId(x, y) for y in range(H) for x in range(W)]
        self.node_index = {node: n for n, node in enumerate(self.nodes)}
        #: Per-node coordinates: all that :meth:`class_of` reads.
        self._xs = tuple(n % W for n in range(N))
        self._ys = tuple(n // W for n in range(N))

        #: Router n owns slots ``n * R`` to ``n * R + R - 1``.
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
            facing = [ports[d.opposite] for d in CARDINALS]
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
            self.mod_slot0_dir = (int(EAST), int(NORTH))
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

        if self.arch == "generic":
            #: packets[cls][yx]: a packet at the centre bound for ``cls``.
            packets = [
                [_packet(divmod(cls, 3), self.F, yx) for yx in (0, 1)]
                for cls in range(9)
            ]
            routing = net.routing
            #: routes[cls * 2 + yx] — ``routing.candidates`` as direction
            #: ints (adaptive: escape first).
            self.routes: tuple[tuple[int, ...], ...] = tuple(
                tuple(int(d) for d in routing.candidates(CENTRE, packet))
                for pair in packets
                for packet in pair
            )
            #: escape[cls] — ``(routing.escape_direction,)``, the one
            #: route of an adaptive escape VC.
            self.escape: tuple[tuple[int], ...] = tuple(
                (int(routing.escape_direction(CENTRE, pair[0])),) for pair in packets
            )
        else:
            #: admission[(cls * 4 + din) * 2 + yx] — the router shape's
            #: admission entry (repro.routers.admission) for a flit
            #: entering on input din, as ``(target, route)``: target a VC
            #: position or :data:`EJECT_CODE`, route the committed
            #: look-ahead direction int, in the object model's candidate
            #: order (the VC allocator's first-wins tie-break depends on
            #: it).
            table = admission_table(specs, self.mode)
            self.admission: tuple[tuple[tuple[int, int], ...], ...] = tuple(
                tuple(
                    (EJECT_CODE if target is EJECT else target, int(route))
                    for target, route in table[admission_index(cls, din, yx)]
                )
                for cls in range(9)
                for din in range(4)
                for yx in (0, 1)
            )
            #: injection[cls * 2 + yx] — the scan order of
            #: ``injection_vc_for`` (repro.routers.admission's injection
            #: table, flattened) as ``(VC position, route)``: route
            #: major, then the module's Injxy/Injyx VCs.  Credit and
            #: ownership are run-time checks.
            self.injection: tuple[tuple[tuple[int, int], ...], ...] = tuple(
                tuple((p, int(route)) for route, positions in entry for p in positions)
                for entry in injection_table(specs, self.mode)
            )
        net.teardown()

    def class_of(self, n: int, dest: int) -> int:
        """The direction class of ``dest`` seen from router ``n``: the
        first index of every routing table."""
        xs, ys = self._xs, self._ys
        return direction_class(xs[dest] - xs[n], ys[dest] - ys[n])


#: Layouts are read-only once built, so instances are shared across
#: simulator runs, keyed by :func:`layout_key`.
_layout_cache: dict[tuple, SoALayout] = {}


def build_layout(config) -> SoALayout:
    key = layout_key(config)
    layout = _layout_cache.get(key)
    if layout is None:
        layout = _layout_cache[key] = SoALayout(config)
    return layout
