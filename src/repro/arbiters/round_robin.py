"""Round-robin arbiter — the workhorse of both VA and SA stages."""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache

from repro.arbiters.base import Arbiter


@cache
def one_hot(n: int) -> tuple[tuple[bool, ...], ...]:
    """``one_hot(n)[i]``: ``n`` request lines with only line ``i`` raised.

    The lines a lone requester presents; shared and immutable, so a
    caller raising one line builds no list.
    """
    return tuple(tuple(j == i for j in range(n)) for i in range(n))


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

    def grant_lone(self, line: int) -> int:
        """:meth:`grant` of ``line`` as the only request: it wins, and
        the line after it becomes highest priority."""
        self._next = line + 1 if line + 1 < self.num_requesters else 0
        return line
