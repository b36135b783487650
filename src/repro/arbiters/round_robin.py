"""Round-robin arbiter — the workhorse of both VA and SA stages."""

from __future__ import annotations

from collections.abc import Sequence

from repro.arbiters.base import Arbiter


class RoundRobinArbiter(Arbiter):
    """Rotating-priority arbiter.

    After a grant, the line *after* the winner becomes highest priority,
    which gives strong fairness (every persistent requester is served
    within ``num_requesters`` grants).
    """

    def __init__(self, num_requesters: int) -> None:
        super().__init__(num_requesters)
        self._next = 0

    def grant(self, requests: Sequence[bool]) -> int | None:
        n = self.num_requesters
        if len(requests) != n:
            self._check(requests)
        idx = self._next
        for _ in range(n):
            if idx >= n:
                idx -= n
            if requests[idx]:
                self._next = idx + 1 if idx + 1 < n else 0
                return idx
            idx += 1
        return None

    def grant_mask(self, mask: int) -> int | None:
        """:meth:`grant` of the lines whose bits ``mask`` sets (bit ``i``
        is line ``i``; ``mask < 2 ** num_requesters``).

        The winner is the lowest set bit at or after the pointer, else
        the lowest set bit: two shifts and an ``x & -x``, so no request
        list is built and no table grows with the width.
        """
        pointer = self._next
        ahead = mask >> pointer << pointer or mask
        if not ahead:
            return None
        after = (ahead & -ahead).bit_length()  # the winner's line + 1
        self._next = after if after < self.num_requesters else 0
        return after - 1

    def grant_lone(self, line: int) -> int:
        """:meth:`grant` of ``line`` as the only request: it wins, and
        the line after it becomes highest priority."""
        self._next = line + 1 if line + 1 < self.num_requesters else 0
        return line
