"""The invariant checkers of the runtime audit engine.

Each checker inspects the live network (or the per-cycle flit snapshot
the engine builds) at the end of an audited cycle and calls
:meth:`AuditEngine.fail` on the first inconsistency, raising a
structured :class:`InvariantViolation`.  The checks encode the state
machine's ground truth:

* **conservation** — every generated packet is delivered, dropped, or
  in flight, and a live worm's buffered + in-flight + delivered flits
  add up to its size;
* **credit** — per-VC credit accounting balances against occupancy,
  in-flight commitments and pending releases, and a dead VC holds no
  flit;
* **handshake** — each cached dead-port flag agrees with what the
  downstream router actually accepts;
* **wormhole-order** — VC FIFOs hold legal worm sequences (no
  interleaving, monotone sequence numbers, bodies never precede heads);
* **matching** — every grant set a RoCo 2x2 allocator emits is a legal
  matching, and a maximal one for the Mirror allocator;
* **location** — no flit is duplicated, and between consecutive audited
  cycles a flit only stays put or crosses one link.

Checkers run at the *end* of a cycle — after link delivery, traversal,
allocation and any runtime fault events — so the state they see is the
consistent inter-cycle state, not a mid-phase transient.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.arbiters.mirror import MirrorAllocator, max_possible_matching
from repro.core.runloop import AuditViolation
from repro.core.types import CARDINALS, NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.audit.engine import AuditEngine, NetworkSnapshot


class InvariantViolation(AuditViolation):
    """A runtime invariant failed; the simulation state is corrupt.

    Carries enough structure for tooling (the shrinker, the CLI, CI) to
    act on it without parsing the message: the invariant name, the cycle
    it fired, the implicated node/packet when known, and a
    FlightRecorder excerpt of the implicated packet's journey.
    """

    def __init__(
        self,
        invariant: str,
        cycle: int,
        message: str,
        node: NodeId | None = None,
        pid: int | None = None,
        excerpt: str = "",
    ) -> None:
        self.invariant = invariant
        self.cycle = cycle
        self.message = message
        self.node = node
        self.pid = pid
        self.excerpt = excerpt
        where = f" at {node}" if node is not None else ""
        who = f" (packet {pid})" if pid is not None else ""
        text = f"[{invariant}] cycle {cycle}: {message}{where}{who}"
        if excerpt:
            text = f"{text}\n{excerpt}"
        super().__init__(text)


class InvariantChecker:
    """Base class: one named invariant audited once per audited cycle."""

    name = "base"

    def on_attach(self, engine: "AuditEngine") -> None:
        """One-time hook when the engine attaches to a simulator."""

    def check(
        self, engine: "AuditEngine", snapshot: "NetworkSnapshot", cycle: int
    ) -> None:
        """Validate the invariant; call ``engine.fail`` on violation."""


class FlitConservationChecker(InvariantChecker):
    """Generated == delivered + dropped + in-flight, down to the flit.

    Reconciles the simulator's packet counters against the actual buffer
    and wire occupancy in the snapshot: every live worm must account for
    all its flits, finished worms must have left no flit behind in a VC,
    and the number of distinct live packets found must equal the
    simulator's outstanding count (a leak in either direction fails).
    """

    name = "conservation"

    def check(self, engine, snapshot, cycle):
        sim = engine.sim
        stats = engine.network.stats
        booked = stats.total_delivered + stats.total_dropped + sim.outstanding
        if sim.generated != booked:
            engine.fail(
                self.name,
                cycle,
                f"{sim.generated} packets generated but "
                f"{stats.total_delivered} delivered + {stats.total_dropped} "
                f"dropped + {sim.outstanding} outstanding = {booked}",
            )
        live_found = set(snapshot.source_queued)
        for pid, packet in snapshot.packets.items():
            finished = (
                packet.delivered_cycle is not None or packet.dropped_cycle is not None
            )
            found = snapshot.flit_counts.get(pid, 0)
            if finished:
                # Flits of a dropped worm may still be draining off wires
                # or out of the source, but a VC queue must never hold
                # one — a drop purges every router holding the packet
                # synchronously.
                in_queues = snapshot.queue_flits.get(pid, 0)
                if packet.delivered_cycle is not None and found:
                    engine.fail(
                        self.name,
                        cycle,
                        f"delivered packet still has {found} flit(s) in the "
                        "network",
                        pid=pid,
                    )
                elif in_queues:
                    engine.fail(
                        self.name,
                        cycle,
                        f"dropped packet still has {in_queues} flit(s) "
                        "buffered in VC queues",
                        pid=pid,
                    )
                continue
            live_found.add(pid)
            if pid in snapshot.source_queued:
                continue  # still queued at the PE: no flits exist yet
            total = found + packet.flits_delivered
            if total != packet.size:
                engine.fail(
                    self.name,
                    cycle,
                    f"worm of size {packet.size} accounts for {found} flit(s) "
                    f"in flight + {packet.flits_delivered} delivered = {total}",
                    pid=pid,
                )
        if len(live_found) != sim.outstanding:
            engine.fail(
                self.name,
                cycle,
                f"{len(live_found)} live packet(s) found in the network but "
                f"the simulator books {sim.outstanding} outstanding",
            )


class CreditConservationChecker(InvariantChecker):
    """Per-VC credit balance and structural occupancy bounds.

    For every VC: credits visible upstream + buffered flits + committed
    in-flight flits + releases waiting out the credit round-trip must
    equal the effective depth.  ``_available`` may legitimately go
    negative after a runtime buffer fault rebases credits with occupants
    still buffered, so the *sum* is the invariant, not positivity; the
    structural bounds are that occupancy never exceeds the physical depth
    and that a dead VC (its router or RoCo module failed) is empty: the
    fault drops every worm buffered in it and admission sends none
    there, and RoCo's allocate paths skip no dead module on that fact.
    """

    name = "credit"

    def check(self, engine, snapshot, cycle):
        for node, router in engine.network.routers.items():
            for vc in router.all_vcs():
                total = (
                    vc._available + len(vc.queue) + vc.expected + len(vc._releases)
                )
                if total != vc.effective_depth:
                    engine.fail(
                        self.name,
                        cycle,
                        f"{vc!r}: credits {vc._available} + occupancy "
                        f"{len(vc.queue)} + expected {vc.expected} + pending "
                        f"releases {len(vc._releases)} = {total}, want "
                        f"effective depth {vc.effective_depth}",
                        node=node,
                    )
                if vc.expected < 0:
                    engine.fail(
                        self.name,
                        cycle,
                        f"{vc!r}: negative in-flight commitment "
                        f"({vc.expected})",
                        node=node,
                    )
                if vc.dead and vc.queue:
                    engine.fail(
                        self.name,
                        cycle,
                        f"{vc!r}: dead VC holds {len(vc.queue)} flit(s)",
                        node=node,
                        pid=vc.queue[0].packet.pid,
                    )
                if len(vc.queue) > vc.depth:
                    engine.fail(
                        self.name,
                        cycle,
                        f"{vc!r}: occupancy {len(vc.queue)} exceeds physical "
                        f"depth {vc.depth}",
                        node=node,
                    )


class HandshakeChecker(InvariantChecker):
    """Cached dead-port flags agree with downstream acceptance.

    The fault model caches ``port.dead`` at wire time and repairs it on
    every runtime fault/heal event; a stale flag silently black-holes or
    revives a link, so each audited cycle re-derives the truth from the
    downstream router.
    """

    name = "handshake"

    def check(self, engine, snapshot, cycle):
        for node, router in engine.network.routers.items():
            for port in router.outputs.values():
                if port.downstream is None:
                    continue
                truth = not port.downstream.accepting(port.input_dir)
                if port.dead != truth:
                    engine.fail(
                        self.name,
                        cycle,
                        f"output {port.direction.name} caches dead={port.dead} "
                        f"but downstream {port.downstream.node} "
                        f"{'rejects' if truth else 'accepts'} that input",
                        node=node,
                    )


class WormOrderChecker(InvariantChecker):
    """VC FIFO legality: worms drain contiguously and in order.

    A queue is legal when it is a sequence of per-packet runs where (a)
    no packet appears in two runs (interleaved worms), (b) sequence
    numbers within a run are consecutive and ascending, (c) every run
    after the first starts with the worm's head (a body flit never
    precedes its head), (d) the front run may start mid-worm only for
    the worm currently draining (``active_pid``), and (e) a run followed
    by another worm must end with its tail — VC reallocation is
    non-atomic, but only across a completed worm.
    """

    name = "wormhole-order"

    def check(self, engine, snapshot, cycle):
        for node, router in engine.network.routers.items():
            for vc in router.all_vcs():
                if not vc.queue:
                    continue
                runs: list[list] = []
                for flit in vc.queue:
                    if runs and runs[-1][0].packet.pid == flit.packet.pid:
                        runs[-1].append(flit)
                    else:
                        runs.append([flit])
                seen: set[int] = set()
                for index, run in enumerate(runs):
                    pid = run[0].packet.pid
                    if pid in seen:
                        engine.fail(
                            self.name,
                            cycle,
                            f"{vc!r}: worm {pid} is interleaved with another "
                            "worm",
                            node=node,
                            pid=pid,
                        )
                    seen.add(pid)
                    seqs = [flit.seq for flit in run]
                    for a, b in zip(seqs, seqs[1:]):
                        if b != a + 1:
                            engine.fail(
                                self.name,
                                cycle,
                                f"{vc!r}: non-consecutive flit sequence "
                                f"{a} -> {b}",
                                node=node,
                                pid=pid,
                            )
                    if run[0].seq != 0:
                        if index > 0:
                            engine.fail(
                                self.name,
                                cycle,
                                f"{vc!r}: body flit (seq {run[0].seq}) queued "
                                "before its worm's head",
                                node=node,
                                pid=pid,
                            )
                        elif not self._front_mid_worm_legal(vc, pid, runs):
                            engine.fail(
                                self.name,
                                cycle,
                                f"{vc!r}: front worm starts mid-body (seq "
                                f"{run[0].seq}) but the VC is not draining it "
                                f"(active_pid={vc.active_pid})",
                                node=node,
                                pid=pid,
                            )
                    if index < len(runs) - 1 and not run[-1].closes_worm:
                        engine.fail(
                            self.name,
                            cycle,
                            f"{vc!r}: worm {pid} followed by another worm "
                            "before its tail",
                            node=node,
                            pid=pid,
                        )

    @staticmethod
    def _front_mid_worm_legal(vc, pid: int, runs: list) -> bool:
        """Whether a mid-body front run reflects a legal drain state.

        The front worm's head has legitimately departed when the VC is
        still recorded as draining it — but ``active_pid`` tracks the
        *most recently pushed* head, so under non-atomic reallocation it
        may already name a worm queued behind the draining tail, and a
        purge of that later worm resets it to None entirely.  Only an
        ``active_pid`` foreign to the queue proves corruption.
        """
        if vc.active_pid == pid or vc.active_pid is None:
            return True
        later_heads = {
            run[0].packet.pid for run in runs[1:] if run[0].seq == 0
        }
        return vc.active_pid in later_heads


class _AuditedAllocator:
    """Transparent proxy validating every grant set an allocator emits.

    Legality (at most one grant per input port and per output slot, and
    every grant answering a real request) is enforced for any wrapped
    allocator, on a bool matrix (``allocate``) and on request masks
    (``allocate_masks``); maximality only when the inner allocator is
    (or derives from) the Mirror allocator, whose construction
    guarantees it — the Sequential ablation intentionally forgoes the
    guarantee.  A lone grant (``grant_lone``) must be in range and be
    the request itself, which is then also the maximal matching.
    """

    def __init__(self, inner, engine, node: NodeId, module_name: str) -> None:
        self.inner = inner
        self.engine = engine
        self.node = node
        self.module_name = module_name

    def _checked(self, grant, num_vcs: int) -> str:
        """``grant``'s label, once it is known to be in range."""
        port, slot, vc = grant
        label = f"{self.module_name} module grant (port {port}, slot {slot}, vc {vc})"
        if not (0 <= port < 2 and 0 <= slot < 2 and 0 <= vc < num_vcs):
            self._fail(f"{label} is out of range")
        return label

    def _fail(self, message: str) -> None:
        engine = self.engine
        engine.fail("matching", engine.network.cycle, message, node=self.node)

    def grant_lone(self, port: int, slot: int, vc: int) -> tuple[int, int, int]:
        grant = self.inner.grant_lone(port, slot, vc)
        label = self._checked(grant, self.inner.num_vcs)
        if grant != (port, slot, vc):
            self._fail(f"{label} was never requested (forged grant)")
        return grant

    def allocate(self, requests) -> list:
        grants = self.inner.allocate(requests)
        self._check_matching(grants, requests)
        return grants

    def allocate_masks(self, m00: int, m01: int, m10: int, m11: int) -> list:
        grants = self.inner.allocate_masks(m00, m01, m10, m11)
        # The masks as a bool matrix: line ``vc`` of (port, slot) is bit
        # ``vc`` of its mask.
        width = self.inner.num_vcs
        requests = [
            [[bool(mask >> vc & 1) for vc in range(width)] for mask in pair]
            for pair in ((m00, m01), (m10, m11))
        ]
        self._check_matching(grants, requests)
        return grants

    def _check_matching(self, grants, requests) -> None:
        """Legality of ``grants`` against ``requests[port][slot][vc]``,
        and (Mirror only) maximality."""
        num_vcs = len(requests[0][0])
        ports: set[int] = set()
        slots: set[int] = set()
        for grant in grants:
            label = self._checked(grant, num_vcs)
            port, slot, vc = grant
            if not requests[port][slot][vc]:
                self._fail(f"{label} was never requested (forged grant)")
            if port in ports:
                self._fail(f"{label}: input port granted twice in one cycle")
            if slot in slots:
                self._fail(f"{label}: output slot granted twice in one cycle")
            ports.add(port)
            slots.add(slot)
        if isinstance(self.inner, MirrorAllocator):
            want = max_possible_matching(requests)
            if len(grants) != want:
                self._fail(
                    f"{self.module_name} module matched {len(grants)} "
                    f"passage(s) where a maximal matching serves {want}"
                )


class MatchingChecker(InvariantChecker):
    """Wraps each RoCo module's 2x2 allocator with grant validation.

    Validation happens inline at grant time (the request matrix is not
    observable afterwards), so the per-cycle ``check`` is a no-op; the
    wrapper fires the moment an illegal or non-maximal grant set is
    produced.
    """

    name = "matching"

    def on_attach(self, engine):
        for node, router in engine.network.routers.items():
            modules = getattr(router, "modules", None)
            if modules is None:
                continue
            for name, module in modules.items():
                module.allocator = _AuditedAllocator(
                    module.allocator, engine, node, name
                )


class FlitLocationChecker(InvariantChecker):
    """Flits never teleport: between consecutive audited cycles a flit
    stays where it was or moves across exactly one link.

    Works on the engine's location snapshots (queue flits at the holding
    router, wire flits attributed to the *sending* router, source-side
    flits at their source node); duplicate flits are detected during
    snapshot construction, before any checker runs.  The continuity
    check is only meaningful for back-to-back snapshots, so it gates on
    ``audit interval == 1`` spacing.
    """

    name = "location"

    def check(self, engine, snapshot, cycle):
        prev = engine.prev_snapshot
        if prev is None or snapshot.cycle - prev.cycle != 1:
            return
        network = engine.network
        for key, node in snapshot.locations.items():
            old = prev.locations.get(key)
            if old is None or old == node:
                continue
            adjacent = any(
                network.neighbor_of(old, d) == node for d in CARDINALS
            )
            if not adjacent:
                engine.fail(
                    self.name,
                    cycle,
                    f"flit seq {key[1]} jumped from {old} to {node} in one "
                    "cycle (not topology-adjacent)",
                    node=node,
                    pid=key[0],
                )


def default_checkers() -> list[InvariantChecker]:
    """The full audit battery, in the order violations are reported."""
    return [
        FlitConservationChecker(),
        CreditConservationChecker(),
        WormOrderChecker(),
        HandshakeChecker(),
        MatchingChecker(),
        FlitLocationChecker(),
    ]
