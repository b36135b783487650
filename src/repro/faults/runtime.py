"""Fault application: the one code that imprints faults on a network.

Static faults and scheduled ones both strike here: the simulator strikes
its static faults at cycle 0, right after ``Network.wire``, so one
reference-count table covers both kinds.  A fault striking mid-run is
the hard case: buffered worms may sit inside the dying module,
neighbours have cached dead-port handshake state from wiring time,
upstream virtual channels hold allocations pointing into the dead
region, and look-ahead routes committed before the fault would send
worms straight into it.  :class:`RuntimeFaultEngine` handles all of
that (at cycle 0 nothing is in flight, so salvage and severing find
nothing to do):

* **imprint** — the Table-3 reaction of :func:`fault_effect`
  (node dead / module dead / rc_faulty / sa_degraded / buffer shrink);
* **salvage** — packets with flits buffered inside a dying module are
  dropped network-wide with :data:`DropReason.BUFFERED_IN_DEAD` (their
  credits and claims are recycled), and a runtime buffer fault evicts
  the shrunk VC's occupants with :data:`DropReason.FAULT_EVICTED`;
* **handshake refresh** — :meth:`Network.refresh_handshake` re-runs the
  wiring-time dead-port computation around the victim;
* **severing sweep** — every live VC whose allocation or committed
  look-ahead route now points at a dead resource is repaired: worms
  whose head is still local release the stale claim and re-route
  (:meth:`BaseRouter.reroute_after_fault`); worms already stretched into
  the dead region are dropped with :data:`DropReason.ROUTE_SEVERED`.

Every apply and clear also starts a new fault epoch
(:meth:`Network.new_fault_epoch`): routers keep a head's hard-block
verdict only while the epoch it was formed in lasts.

Transient faults reverse the imprint on expiry (traffic lost while the
fault was active stays lost, matching real hardware).  Overlapping
faults on the same effect — a static fault included — are
reference-counted so a transient expiring under a permanent fault does
not resurrect the component.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.buffer import VirtualChannel
from repro.core.types import LOCAL, DropReason, Packet
from repro.faults.injector import ComponentFault, fault_effect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.network import Network
    from repro.routers.base import BaseRouter


class RuntimeFaultEngine:
    """Applies and clears :class:`ComponentFault`\\ s on a live network."""

    def __init__(
        self,
        network: "Network",
        packet_lookup: "Callable[[int], Packet | None] | None" = None,
    ) -> None:
        self.network = network
        self._packet_lookup = packet_lookup
        #: Reference counts per effect key, for overlapping transients.
        self._effects: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def apply(self, fault: ComponentFault, cycle: int) -> bool:
        """Strike ``fault`` now; returns True when topology changed."""
        network = self.network
        network.has_faults = True
        network.new_fault_epoch()
        router = network.routers[fault.node]
        effect = fault_effect(router, fault)
        first = self._acquire(effect)
        if effect[0] == "node":
            if first:
                router.dead = True
                self._kill_vcs(router.all_vcs(), cycle)
                self._after_topology_change(fault.node, cycle)
            return first
        module = router.modules[fault.module]
        if effect[0] == "module":
            if first:
                module.dead = True
                self._kill_vcs(module.all_vcs(), cycle)
                self._after_topology_change(fault.node, cycle)
            return first
        if effect[0] == "rc":
            module.rc_faulty = True
        elif effect[0] == "sa":
            module.sa_degraded = True
        elif first:  # buffer
            self._shrink_vc(router, module.all_vcs()[effect[3]], cycle)
        return False

    def clear(self, fault: ComponentFault, cycle: int) -> bool:
        """Heal a transient ``fault``; returns True when topology changed."""
        self.network.new_fault_epoch()
        router = self.network.routers[fault.node]
        effect = fault_effect(router, fault)
        if not self._release(effect):
            return False  # an overlapping fault still holds the effect
        if effect[0] == "node":
            router.dead = False
            for vc in router.all_vcs():
                vc.dead = False
            self._after_topology_change(fault.node, cycle)
            return True
        module = router.modules[fault.module]
        if effect[0] == "module":
            module.dead = False
            for vc in module.all_vcs():
                vc.dead = False
            self._after_topology_change(fault.node, cycle)
            return True
        if effect[0] == "rc":
            module.rc_faulty = False
        elif effect[0] == "sa":
            module.sa_degraded = False
        else:  # buffer
            vc = module.all_vcs()[effect[3]]
            vc.faulty = False
            vc.rebase_credits()
        return False

    # ------------------------------------------------------------------
    # Effect reference counting (overlapping transients)
    # ------------------------------------------------------------------

    def _acquire(self, key: tuple) -> bool:
        """Count one fault on ``key``; True when it is the first."""
        count = self._effects.get(key, 0)
        self._effects[key] = count + 1
        return count == 0

    def _release(self, key: tuple) -> bool:
        """Release one fault on ``key``; True when none remain."""
        count = self._effects.get(key, 0)
        if count <= 1:
            self._effects.pop(key, None)
            return True
        self._effects[key] = count - 1
        return False

    # ------------------------------------------------------------------
    # Salvage and repair
    # ------------------------------------------------------------------

    def _kill_vcs(self, vcs: "list[VirtualChannel]", cycle: int) -> None:
        """Mark VCs dead and salvage every worm buffered in them."""
        victims: dict[int, Packet] = {}
        for vc in vcs:
            vc.dead = True
            for flit in vc.queue:
                victims[flit.packet.pid] = flit.packet
        for packet in victims.values():
            self.network.drop_packet(packet, cycle, DropReason.BUFFERED_IN_DEAD)

    def _shrink_vc(
        self, router: "BaseRouter", vc: VirtualChannel, cycle: int
    ) -> None:
        """Runtime BUFFER fault: evict occupants, shrink to depth 1."""
        victims: dict[int, Packet] = {
            flit.packet.pid: flit.packet for flit in vc.queue
        }
        if vc.owner_pid is not None and vc.owner_pid not in victims:
            packet = self._resolve_pid(vc.owner_pid)
            if packet is not None:
                victims[packet.pid] = packet
        # Flits already flying towards the shrunk VC would overflow its
        # single surviving slot; their worms are evicted too.
        for _, link in router._in_links:
            for flit in link.pending():
                if flit.vc_hint is vc:
                    victims[flit.packet.pid] = flit.packet
        for packet in victims.values():
            self.network.drop_packet(packet, cycle, DropReason.FAULT_EVICTED)
        vc.faulty = True
        vc.rebase_credits()

    def _after_topology_change(self, node, cycle: int) -> None:
        network = self.network
        network.refresh_handshake(node)
        self._sever_stale_routes(cycle)
        network.invalidate_reachability()
        self._wake_neighborhood(node)

    def _sever_stale_routes(self, cycle: int) -> None:
        """Repair live worms whose path now leads into a dead resource.

        Heads still waiting locally release the stale downstream claim
        and get a chance to re-route; worms whose head already crossed
        into the dead region cannot be re-threaded (wormhole flow
        control) and are dropped.
        """
        network = self.network
        for router in network._router_list:
            if router.dead:
                continue
            for vc in router.all_vcs():
                if vc.dead or not vc.queue:
                    continue
                front = vc.queue[0]
                target = vc.out_vc
                severed = isinstance(target, VirtualChannel) and target.dead
                if not severed and vc.allocated and vc.out_dir is not None:
                    if vc.out_dir is not LOCAL:
                        port = router.outputs.get(vc.out_dir)
                        severed = port is None or port.dead
                if severed:
                    if front.is_head:
                        if (
                            isinstance(target, VirtualChannel)
                            and target.owner_pid == front.packet.pid
                        ):
                            target.release_owner()
                        vc.out_vc = None
                        vc.out_dir = None
                        router.reroute_after_fault(vc)
                    else:
                        network.drop_packet(
                            front.packet, cycle, DropReason.ROUTE_SEVERED
                        )
                elif front.is_head and not vc.allocated:
                    # Unallocated worm with a committed look-ahead route:
                    # give the router a chance to re-route it away from
                    # the dead region before VA hard-blocks on it.
                    router.reroute_after_fault(vc)

    def _wake_neighborhood(self, node) -> None:
        """Wake the victim and its neighbours so reactions run promptly."""
        from repro.core.types import CARDINALS

        network = self.network
        network.routers[node].wake()
        for direction in CARDINALS:
            neighbor = network.neighbor_of(node, direction)
            if neighbor is not None:
                network.routers[neighbor].wake()

    def _resolve_pid(self, pid: int) -> Packet | None:
        if self._packet_lookup is not None:
            packet = self._packet_lookup(pid)
            if packet is not None:
                return packet
        for router in self.network._router_list:
            for vc in router.all_vcs():
                for flit in vc.queue:
                    if flit.packet.pid == pid:
                        return flit.packet
            for _, link in router._in_links:
                for flit in link.pending():
                    if flit.packet.pid == pid:
                        return flit.packet
        return None
