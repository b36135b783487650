"""Baseline 2x2 switch allocator without the Mirroring Effect.

Used by the mirror-allocation ablation: a plain two-stage separable
allocator over the same 2-port / 2-direction module.  Each input port
blindly nominates one ready VC (a single v:1 arbiter per port, no
per-direction local winners), then each direction picks among the
nominating ports.  Unlike the Mirror allocator this provides no
maximal-matching guarantee: a port whose nominee loses its direction
idles even when its other VCs wanted the free direction.
"""

from __future__ import annotations

from repro.arbiters.mirror import MirrorGrant
from repro.arbiters.round_robin import RoundRobinArbiter


class SequentialAllocator:
    """Drop-in (non-maximal) replacement for :class:`MirrorAllocator`."""

    def __init__(self, num_vcs: int) -> None:
        self.num_vcs = num_vcs
        self._port_stage = [RoundRobinArbiter(num_vcs) for _ in range(2)]
        self._direction_stage = [RoundRobinArbiter(2) for _ in range(2)]

    def allocate(self, requests: list[list[list[bool]]]) -> list[MirrorGrant]:
        if len(requests) != 2 or any(len(r) != 2 for r in requests):
            raise ValueError("sequential allocator expects a 2x2 request matrix")
        # Stage 1: one nominee per port, chosen blind to direction load.
        nominees: list[tuple[int, int] | None] = [None, None]
        for port in range(2):
            flat = [
                requests[port][0][vc] or requests[port][1][vc]
                for vc in range(self.num_vcs)
            ]
            if not any(flat):
                continue
            vc = self._port_stage[port].grant(flat)
            slot = 0 if requests[port][0][vc] else 1
            nominees[port] = (slot, vc)
        # Stage 2: each direction grants one nominating port.
        grants: list[MirrorGrant] = []
        for slot in range(2):
            lines = [
                nominees[port] is not None and nominees[port][0] == slot
                for port in range(2)
            ]
            if not any(lines):
                continue
            port = self._direction_stage[slot].grant(lines)
            grants.append(MirrorGrant(port, slot, nominees[port][1]))
        return grants

    def allocate_masks(
        self, m00: int, m01: int, m10: int, m11: int
    ) -> list[tuple[int, int, int]]:
        """:meth:`allocate` of the matrix whose ``requests[port][slot]``
        line sets the bits of ``m<port><slot>`` (bit ``i`` is VC ``i``):
        the same grants in the same order, as plain ``(port, slot, vc)``
        tuples, and every arbiter left where :meth:`allocate` leaves it."""
        # Stage 1: a port nominates from the union of its two lines.
        nominees: list[tuple[int, int] | None] = [None, None]
        for port, (slot0, slot1) in enumerate(((m00, m01), (m10, m11))):
            if slot0 or slot1:
                vc = self._port_stage[port].grant_mask(slot0 | slot1)
                nominees[port] = (0 if slot0 >> vc & 1 else 1, vc)
        # Stage 2: each direction grants one nominating port.
        grants = []
        for slot in range(2):
            lines = [
                port for port, nominee in enumerate(nominees)
                if nominee is not None and nominee[0] == slot
            ]
            if len(lines) == 2:
                port = self._direction_stage[slot].grant_mask(0b11)
            elif lines:
                port = self._direction_stage[slot].grant_lone(lines[0])
            else:
                continue
            grants.append((port, slot, nominees[port][1]))
        return grants

    def grant_lone(self, port: int, slot: int, vc: int) -> tuple[int, int, int]:
        """:meth:`allocate` of a matrix whose only request is ``vc`` of
        ``port`` for ``slot``: the port nominates it and its direction
        grants the port, each arbiter left as ``allocate`` would."""
        self._port_stage[port].grant_lone(vc)
        self._direction_stage[slot].grant_lone(port)
        return (port, slot, vc)
