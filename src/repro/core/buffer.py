"""Virtual-channel buffers.

A :class:`VirtualChannel` is a FIFO flit queue plus the state a wormhole
router tracks for it:

* on the *input* side — the output direction granted by routing
  computation and the downstream VC granted by VC allocation for the worm
  currently draining;
* on the *admission* side — ownership (which packet the VC is currently
  allocated to by an upstream VA) and the credit count upstream switch
  allocators check before launching a flit towards it.

Credit accounting is centralised here rather than mirrored per upstream
neighbour because RoCo path-set VCs can legally receive traffic from more
than one neighbour (e.g. a ``tyx`` VC accepts turned flits from both the
North and South inputs).  The credit round-trip delay of a real router is
preserved: a slot freed by a departing flit only becomes visible to
upstream allocators :data:`CREDIT_LATENCY` cycles later.

Reallocation is non-atomic — a VC becomes allocatable to a new packet as
soon as the previous packet's tail has been *launched towards* it, so the
queue may briefly hold the tail of one worm followed by the head of the
next.
"""

from __future__ import annotations

from repro.core.types import Direction, Flit

#: Cycles between a flit departing a VC and the freed slot becoming
#: visible upstream (switch traversal + credit wire).
CREDIT_LATENCY = 2


class VirtualChannel:
    """One VC buffer of an input port (or path set).

    ``vc_class`` is a free-form label used by routers that restrict which
    traffic may occupy a VC: the RoCo router uses the paper's Table-1
    classes (``dx``, ``dy``, ``txy``, ``tyx``, ``injxy``, ``injyx``) and
    the Path-Sensitive router uses quadrant labels.  The generic router
    leaves it empty.
    """

    __slots__ = (
        "port",
        "index",
        "depth",
        "vc_class",
        "queue",
        "out_dir",
        "out_vc",
        "faulty",
        "dead",
        "hold_until",
        "active_pid",
        "accepts_from",
        "escape",
        "final_only",
        "input_dir",
        "owner_pid",
        "expected",
        "verdict",
        "router",
        "waiter",
        "_available",
        "_releases",
    )

    def __init__(self, port: int, index: int, depth: int, vc_class: str = "") -> None:
        self.port = port
        self.index = index
        self.depth = depth
        self.vc_class = vc_class
        self.queue: list[Flit] = []
        #: Output direction of the worm currently draining (None until the
        #: head flit at the front has been routed).
        self.out_dir: Direction | None = None
        #: Downstream VC granted by VA for the draining worm.
        self.out_vc: "VirtualChannel | int | None" = None
        #: Set by the fault injector; a faulty buffer operates in the
        #: degraded Virtual Queuing mode (see repro.faults.recovery).
        self.faulty = False
        #: True once the owning module/router died; dead VCs accept no
        #: traffic and flits arriving off a link into one are dropped.
        self.dead = False
        #: Earliest cycle at which the front flit may compete for the
        #: switch; models recovery-mechanism handshake penalties.
        self.hold_until = 0
        #: Packet id of the worm currently draining (purge bookkeeping).
        self.active_pid: int | None = None
        #: Arrival input directions admitted into this VC (class routers).
        self.accepts_from: tuple[Direction, ...] = ()
        #: True for deadlock-free escape VCs (adaptive routing discipline).
        self.escape = False
        #: True when only packets in their final dimension may enter
        #: (the XY-YX extra-dx partition of Section 3.1).
        self.final_only = False
        #: Physical input direction feeding this VC; LOCAL for injection
        #: VCs, None for multi-arrival VCs (set per flit on arrival).
        self.input_dir: Direction | None = None
        #: Packet currently holding this VC from the upstream VA's view.
        self.owner_pid: int | None = None
        #: Flits committed towards this VC but still in flight on a link.
        #: The local PE source must not start a worm while arrivals are
        #: pending, or its zero-latency pushes would interleave worms.
        self.expected = 0
        #: ``(fault_epoch, pid, attempts)`` of the front head's last VA
        #: attempt that every candidate output *hard*-blocked: while the
        #: network's fault epoch and the front packet are unchanged, that
        #: attempt would end the same way (see BaseRouter._blocked_again).
        self.verdict: tuple[int, int, int] | None = None
        #: The router this VC belongs to, set by it: a :meth:`claim` is
        #: recorded on its network, which purges a dropped packet only
        #: in the routers the packet claimed a VC in.
        self.router = None
        #: The upstream router napping until this VC has a credit for it
        #: (see BaseRouter.nap); every credit given here is reported to
        #: it, and a stale entry is harmless.
        self.waiter = None
        #: Credits as seen by upstream switch allocators.
        self._available = depth
        #: Freed slots waiting out the credit round-trip: release cycles.
        self._releases: list[int] = []

    # -- capacity / credits ------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self.queue)

    @property
    def empty(self) -> bool:
        return not self.queue

    @property
    def effective_depth(self) -> int:
        """Usable depth; a faulty buffer degrades to a single bypass slot."""
        return 1 if self.faulty else self.depth

    def credits(self, cycle: int) -> int:
        """Slots upstream may launch into as of ``cycle``."""
        releases = self._releases
        if releases and releases[0] <= cycle:
            self._refresh(cycle)
        return self._available

    def reserve_slot(self, cycle: int) -> None:
        """Consume a credit (upstream SA grant); flit is now committed."""
        self._refresh(cycle)
        if self._available <= 0:
            raise RuntimeError(f"credit underflow on {self!r}")
        self._available -= 1

    def refund_slot(self) -> None:
        """Return a credit for a grant that never launched (purged worm)."""
        self._available += 1
        waiter = self.waiter
        if waiter is not None:
            waiter.credit_due(waiter.network.cycle)

    def schedule_release(self, cycle: int) -> None:
        """A flit left this VC; its slot frees after the credit round-trip."""
        release = cycle + CREDIT_LATENCY
        self._releases.append(release)
        waiter = self.waiter
        if waiter is not None:
            waiter.credit_due(release)

    def _refresh(self, cycle: int) -> None:
        while self._releases and self._releases[0] <= cycle:
            del self._releases[0]
            self._available += 1

    def rebase_credits(self) -> None:
        """Recompute credits from first principles after a capacity change.

        Slots already consumed by buffered flits, by flits committed but
        still in flight (``expected``) and by releases waiting out the
        credit round-trip are all accounted for, so the eventual steady
        state is exactly ``effective_depth`` free slots for an empty VC.
        """
        self._available = (
            self.effective_depth - len(self.queue) - self.expected - len(self._releases)
        )

    # -- admission-side ownership ------------------------------------------

    def claim(self, pid: int) -> None:
        if self.owner_pid is not None:
            raise RuntimeError(f"{self!r} already owned by packet {self.owner_pid}")
        self.owner_pid = pid
        router = self.router
        if router is not None:
            router.network.record_claim(pid, router)

    def release_owner(self) -> None:
        self.owner_pid = None

    def injectable(self, cycle: int) -> bool:
        """Whether the local PE source may start a new worm here now."""
        return self.owner_pid is None and self.expected == 0 and self.credits(cycle) > 0

    # -- worm state ----------------------------------------------------------

    @property
    def front(self) -> Flit | None:
        return self.queue[0] if self.queue else None

    @property
    def routed(self) -> bool:
        """True once the draining worm has an assigned output direction."""
        return self.out_dir is not None

    @property
    def allocated(self) -> bool:
        """True once the draining worm also holds a downstream VC."""
        return self.out_vc is not None

    def push(self, flit: Flit) -> None:
        if len(self.queue) >= self.effective_depth:
            raise OverflowError(
                f"VC p{self.port}v{self.index} overflow (depth {self.effective_depth})"
            )
        self.queue.append(flit)

    def pop(self, cycle: int) -> Flit:
        """Forward the front flit out of the buffer.

        Schedules the credit release and clears the worm state when the
        departing flit is the tail, making the VC re-allocatable.
        """
        flit = self.queue.pop(0)
        self.schedule_release(cycle)
        if flit.closes_worm:
            self.out_dir = None
            self.out_vc = None
            self.active_pid = None
        return flit

    def assign_route(self, direction: Direction) -> None:
        self.out_dir = direction

    # -- out-of-band queue edits ---------------------------------------------
    #
    # ``push``/``pop`` are the pipeline's way in and out.  Everything else
    # that changes what the queue holds goes through the methods below, so
    # occupancy has exactly one owner: routers skip a VC on a bare
    # ``vc.queue`` probe and must never be surprised by an edit made
    # behind this class's back.  The list object itself is never
    # replaced — hot loops hold a reference to it across calls.

    def purge(self, pid: int, cycle: int) -> int:
        """Remove every buffered flit of dropped packet ``pid``.

        Each removed flit frees its slot after the credit round-trip,
        exactly as if it had been forwarded.  The grant (``out_dir`` /
        ``out_vc``) belongs to the front worm, so it is cleared only when
        that worm is the packet — the front flit's, or on an empty VC
        ``active_pid``'s (the head may have moved on while body flits are
        still upstream).  ``active_pid`` names the most recently pushed
        head, which under non-atomic reallocation may be a worm queued
        behind the draining one: a worm behind a purged front must not
        inherit its grant, whose downstream VC the purge releases.
        Returns the number of flits removed.
        """
        queue = self.queue
        front_pid = queue[0].packet.pid if queue else self.active_pid
        removed = 0
        if queue:
            kept = [f for f in queue if f.packet.pid != pid]
            removed = len(queue) - len(kept)
            if removed:
                queue[:] = kept
                for _ in range(removed):
                    self.schedule_release(cycle)
        if front_pid == pid:
            self.out_dir = None
            self.out_vc = None
        if self.active_pid == pid:
            self.active_pid = None
        return removed

    def discard_front(self) -> Flit:
        """Drop the front flit with no credit or worm bookkeeping.

        For the end-of-run sweep only: the flit's packet is already
        accounted as lost and nothing will ever query this VC again.
        """
        return self.queue.pop(0)

    def restore(self, flits) -> None:
        """Reinstate buffered flits from a state snapshot, in order.

        The snapshot carries its own credit ledger, so — unlike
        :meth:`push` — nothing here touches credits or checks depth.
        Nor does it carry claims: the network stops trusting its purge
        record (``Network.record_claim``) from here on.
        """
        self.queue.extend(flits)
        if self.router is not None:
            self.router.network.forget_claims()

    def reset(self) -> None:
        """Drop all contents and worm state (used when discarding packets)."""
        self.queue.clear()
        self.out_dir = None
        self.out_vc = None
        self.active_pid = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cls = f":{self.vc_class}" if self.vc_class else ""
        return (
            f"VC(p{self.port}v{self.index}{cls}, occ={self.occupancy}/"
            f"{self.effective_depth}, out={self.out_dir})"
        )
