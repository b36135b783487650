"""How fast the host is right now, so that times can be told apart from it.

The benchmark's hosts are shared: the same pure-Python work takes 0.75x
to 2x its usual time depending on what the neighbours do, in phases that
last from seconds to minutes, so a run's median wall says more about the
phase it fell into than about the program.  A *probe* is a fixed piece
of interpreter work (objects, attribute access, method calls, tuples,
deques, dict stores, like the program, but none of the program's code)
timed just before and after every unit.  A unit's wall divided by the
host's *slowness* around it (probe wall / ``REFERENCE_S``) is its time in
**reference seconds**: what it would have taken on a host that runs the
probe in exactly ``REFERENCE_S``.  The end-to-end metrics, the path
throughputs and the served latencies are reported in those; span times
stay raw, next to ``perfbench.host_slowness``.
"""

from __future__ import annotations

import bisect
import statistics
from collections import deque
from time import perf_counter

#: The probe's wall on the reference host, by definition.  It is about
#: what this box needs in its usual phase, so reference seconds read
#: like seconds here.  Changing it, or the probe, rescales every
#: end-to-end time: both are part of the benchmark's definition.
REFERENCE_S = 0.010
#: Few enough to stay in cache: a probe over 4,096 cells tracked the
#: simulator's slowdowns worse than this one and drifted with the heap.
CELLS = 256
PASSES = 120


class _Cell:
    __slots__ = ("value", "peers", "seen", "queue")

    def __init__(self, value: int) -> None:
        self.value = value
        self.peers: list[_Cell] = []
        self.seen: dict[int, int] = {}
        self.queue: deque = deque([(value, 0)])

    def push(self, value: int, hops: int) -> int:
        self.queue.append((value, hops))
        return self.queue.popleft()[0]


def _build() -> list[_Cell]:
    cells = [_Cell(i * 2654435761 % 65521) for i in range(CELLS)]
    for index, cell in enumerate(cells):
        cell.peers = [
            cells[(index * 31 + 7) % CELLS],
            cells[(index * 17 + 1031) % CELLS],
            cells[(index + 1) % CELLS],
        ]
    return cells


_cells: list[_Cell] = []


def probe_once() -> float:
    """Wall seconds of the probe: the same operations on every call."""
    if not _cells:
        _cells.extend(_build())
    cells = _cells
    started = perf_counter()
    for hops in range(PASSES):
        for cell in cells:
            value = cell.value
            for peer in cell.peers:
                value = (value * 31 + peer.value) & 0xFFFF
            cell.value = cell.push(value, hops)
            cell.seen[value & 7] = hops
    return perf_counter() - started


class HostSpeed:
    """The probes of one run, in the order they were taken."""

    def __init__(self) -> None:
        self.times: list[float] = []  # perf_counter() when each began
        self.walls: list[float] = []

    def probe(self, count: int = 1) -> None:
        """One reading: the mean of ``count`` probes run back to back.

        Around units of a second or so the host's speed changes within
        the unit, and three instants either side say more than one.
        """
        self.times.append(perf_counter())
        self.walls.append(statistics.fmean(probe_once() for _ in range(count)))

    def slowness(self, started: float, ended: float) -> float:
        """Host slowness over an interval: the mean of the last probe
        begun before it, the first begun after it and any in between,
        over ``REFERENCE_S``."""
        first = max(0, bisect.bisect_right(self.times, started) - 1)
        last = bisect.bisect_left(self.times, ended) + 1
        return statistics.fmean(self.walls[first:last]) / REFERENCE_S

    def median_slowness(self) -> float:
        return statistics.median(self.walls) / REFERENCE_S
