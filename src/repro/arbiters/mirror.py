"""The Mirroring Effect switch allocator (paper Section 3.3, Figure 4).

Each RoCo module owns a 2x2 crossbar: two input ports, two output
directions (East/West for the Row-Module, North/South for the
Column-Module).  The allocator works in two stages:

* **Local stage** — every input port runs *two* v:1 arbiters, one per
  output direction, producing that port's winning VC for each direction.
* **Global stage** — a single 2:1 arbiter decides the direction granted to
  port 1; port 2's grant is the *mirror image* (the opposite direction).
  The global arbiter also sees port 2's state so the mirrored pair always
  realises a maximal matching on the 2x2 switch.

Compared to iterative separable allocation this needs one global arbiter
per module instead of one per output port, and never leaves a servable
request unserved (the matching is maximal by construction).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.arbiters.round_robin import RoundRobinArbiter


class MirrorGrant(NamedTuple):
    """One crossbar passage granted for this cycle."""

    port: int
    direction_slot: int
    vc_index: int


class MirrorAllocator:
    """Maximal-matching allocator for one 2x2 RoCo module.

    Directions are abstracted to slots 0 and 1 (the module maps them onto
    East/West or North/South).  ``num_vcs`` is the VC count per input
    port.
    """

    def __init__(self, num_vcs: int) -> None:
        self.num_vcs = num_vcs
        # Two local v:1 arbiters per port: [port][direction_slot].
        self._local = [
            [RoundRobinArbiter(num_vcs), RoundRobinArbiter(num_vcs)] for _ in range(2)
        ]
        # The single global 2:1 arbiter of Figure 4 (direction of port 1).
        self._global = RoundRobinArbiter(2)

    def allocate(self, requests: list[list[list[bool]]]) -> list[MirrorGrant]:
        """Run one allocation cycle.

        ``requests[port][direction_slot][vc]`` is True when that VC's front
        flit wants that output.  Returns at most one grant per port and at
        most one per direction (mirrored), maximising the match count.

        The reference over bool lines, which the full-sweep router body
        runs; a RoCo step grants from request masks
        (:meth:`allocate_masks`) or, for a module's sole request,
        :meth:`grant_lone`.
        """
        if len(requests) != 2 or len(requests[0]) != 2 or len(requests[1]) != 2:
            raise ValueError("mirror allocator expects a 2-port, 2-direction matrix")

        # Local stage: winning VC per (port, direction), None when idle.
        # Every requesting (port, slot) runs its arbiter — losing slots
        # still advance rotating priority, exactly as in hardware.
        p1_req, p2_req = requests
        local = self._local
        l00 = local[0][0].grant(p1_req[0]) if True in p1_req[0] else None
        l01 = local[0][1].grant(p1_req[1]) if True in p1_req[1] else None
        l10 = local[1][0].grant(p2_req[0]) if True in p2_req[0] else None
        l11 = local[1][1].grant(p2_req[1]) if True in p2_req[1] else None

        p2_has = (l10 is not None, l11 is not None)

        if l00 is not None or l01 is not None:
            slot1 = self._choose_port1_slot(
                (l00 is not None, l01 is not None), p2_has
            )
            grants = [MirrorGrant(0, slot1, l00 if slot1 == 0 else l01)]
            if slot1 == 0:
                if l11 is not None:
                    grants.append(MirrorGrant(1, 1, l11))
            elif l10 is not None:
                grants.append(MirrorGrant(1, 0, l10))
            return grants
        if p2_has[0] or p2_has[1]:
            # Port 1 idle: the global arbiter serves port 2 directly.
            slot2 = self._global.grant(p2_has)
            return [MirrorGrant(1, slot2, l10 if slot2 == 0 else l11)]
        return []

    def allocate_masks(
        self, m00: int, m01: int, m10: int, m11: int
    ) -> list[tuple[int, int, int]]:
        """:meth:`allocate` of the matrix whose ``requests[port][slot]``
        line sets the bits of ``m<port><slot>`` (bit ``i`` is VC ``i``).

        The same grants in the same order, as plain ``(port, slot, vc)``
        tuples, and every arbiter left where :meth:`allocate` leaves it:
        each requesting (port, slot) runs its local arbiter on its mask,
        a score tie runs the global arbiter on both lines and a decided
        slot is its lone grant.
        """
        local = self._local
        l00 = local[0][0].grant_mask(m00) if m00 else None
        l01 = local[0][1].grant_mask(m01) if m01 else None
        l10 = local[1][0].grant_mask(m10) if m10 else None
        l11 = local[1][1].grant_mask(m11) if m11 else None
        if m00 or m01:
            # Port 1's direction scores 2 where port 2 can take the
            # mirror image, 1 where it cannot (_choose_port1_slot).
            if m00 and m01 and bool(m11) is bool(m10):
                slot1 = self._global.grant_mask(0b11)
            else:
                slot1 = 0 if m00 and (m11 or not m01) else 1
                self._global.grant_lone(slot1)
            if slot1 == 0:
                if m11:
                    return [(0, 0, l00), (1, 1, l11)]
                return [(0, 0, l00)]
            if m10:
                return [(0, 1, l01), (1, 0, l10)]
            return [(0, 1, l01)]
        if m10 and m11:
            # Port 1 idle: the global arbiter serves port 2 directly.
            slot2 = self._global.grant_mask(0b11)
            return [(1, slot2, l10 if slot2 == 0 else l11)]
        if m10:
            self._global.grant_lone(0)
            return [(1, 0, l10)]
        if m11:
            self._global.grant_lone(1)
            return [(1, 1, l11)]
        return []

    def grant_lone(self, port: int, slot: int, vc: int) -> tuple[int, int, int]:
        """:meth:`allocate` of a matrix whose only request is ``vc`` of
        ``port`` for ``slot``, without building or scanning it.

        The request wins its local arbiter, and the global arbiter grants
        its slot: as port 1's direction, the only one that scores, or
        serving port 2 directly.  Every arbiter ends as ``allocate``
        would leave it; the grant is the plain ``(port, slot, vc)``.
        """
        self._local[port][slot].grant_lone(vc)
        self._global.grant_lone(slot)
        return (port, slot, vc)

    def _choose_port1_slot(self, p1_has: list[bool], p2_has: list[bool]) -> int:
        """Pick port 1's direction, maximising the mirrored match count.

        When both directions yield the same match count the 2:1 global
        arbiter's rotating priority breaks the tie fairly.
        """
        score0 = (2 if p2_has[1] else 1) if p1_has[0] else -1
        score1 = (2 if p2_has[0] else 1) if p1_has[1] else -1
        if score0 == score1:
            return self._global.grant((True, True))
        winner = 0 if score0 > score1 else 1
        # Keep the global arbiter's state consistent with the decision.
        self._global.grant((winner == 0, winner == 1))
        return winner


def max_possible_matching(requests: list[list[list[bool]]]) -> int:
    """Brute-force maximum matching size on the 2x2 request matrix."""
    has = [[any(requests[p][s]) for s in range(2)] for p in range(2)]
    best = 0
    # Enumerate assignments: each port takes one direction slot or none,
    # with distinct slots.
    for s1 in (None, 0, 1):
        for s2 in (None, 0, 1):
            if s1 is not None and s1 == s2:
                continue
            size = 0
            if s1 is not None and has[0][s1]:
                size += 1
            if s2 is not None and has[1][s2]:
                size += 1
            best = max(best, size)
    return best
