"""Synthetic MPEG-2 video traffic (Caminero et al. substitution).

The paper drives the multimedia experiments with MPEG-2 video traces.
Real traces are not redistributable, so we synthesise traffic with the
same structure: a Group-of-Pictures (GOP) cadence of large I frames,
medium P frames and small B frames, emitted at a fixed frame period with
lognormal per-frame size variation.  Each frame becomes a burst of
packets streamed to a per-node fixed peer (video flows are long-lived
point-to-point connections), which preserves the property that stresses
the router: large correlated bursts at frame boundaries over stable
paths.

Average offered load still matches the configured injection rate: frame
sizes are scaled so that packets-per-GOP / cycles-per-GOP equals the
requested packets/node/cycle.
"""

from __future__ import annotations

import math
import random
from collections import deque

from repro.core.config import SimulationConfig
from repro.core.types import NodeId
from repro.traffic.base import TrafficPattern

#: Classic MPEG-2 GOP structure (display order IBBPBBPBBPBB, 12 frames).
DEFAULT_GOP = "IBBPBBPBBPBB"
#: Relative frame sizes (I : P : B), from published MPEG-2 trace statistics.
FRAME_WEIGHT = {"I": 5.0, "P": 2.0, "B": 1.0}
#: Lognormal sigma of per-frame size variation.
DEFAULT_SIZE_SIGMA = 0.3


class MultimediaTraffic(TrafficPattern):
    """GOP-structured bursty traffic over fixed source->peer flows."""

    name = "multimedia"

    def __init__(
        self,
        frame_period: int = 400,
        gop: str = DEFAULT_GOP,
        size_sigma: float = DEFAULT_SIZE_SIGMA,
    ) -> None:
        super().__init__()
        if any(f not in FRAME_WEIGHT for f in gop):
            raise ValueError(f"GOP may only contain I/P/B frames, got {gop!r}")
        self.frame_period = frame_period
        self.gop = gop
        self.size_sigma = size_sigma
        self._peers: dict[NodeId, NodeId] = {}
        self._phase: dict[NodeId, int] = {}
        self._pending: dict[NodeId, deque[int]] = {}
        self._frame_packets: dict[str, float] = {}

    def bind(self, config: SimulationConfig, rng: random.Random, nodes) -> None:
        super().bind(config, rng, nodes)
        # Derive per-frame packet budgets so the mean load matches.
        packets_per_gop = self.packet_rate * self.frame_period * len(self.gop)
        total_weight = sum(FRAME_WEIGHT[f] for f in self.gop)
        self._frame_packets = {
            kind: packets_per_gop * weight / total_weight
            for kind, weight in FRAME_WEIGHT.items()
        }
        # Long-lived flows: a random derangement-ish peer assignment.
        shuffled = list(nodes)
        rng.shuffle(shuffled)
        self._peers = {}
        for src, dest in zip(nodes, shuffled):
            self._peers[src] = dest if dest != src else self._fallback_peer(src)
        self._phase = {node: rng.randrange(self.cycle_per_gop) for node in nodes}
        self._pending = {node: deque() for node in nodes}

    def _fallback_peer(self, src: NodeId) -> NodeId:
        return self._random_other_node(src)

    @property
    def cycle_per_gop(self) -> int:
        return self.frame_period * len(self.gop)

    def destination(self, src: NodeId) -> NodeId:
        return self._peers[src]

    def arrivals(self, node: NodeId, cycle: int) -> int:
        local = (cycle + self._phase[node]) % self.cycle_per_gop
        if local % self.frame_period == 0:
            # Frame boundary: queue this frame's packet burst.
            kind = self.gop[local // self.frame_period]
            mean = self._frame_packets[kind]
            size = mean * math.exp(
                self.rng.gauss(-0.5 * self.size_sigma**2, self.size_sigma)
            )
            whole = int(size)
            if self.rng.random() < size - whole:
                whole += 1
            self._pending[node].extend([1] * whole)
        # Drain the burst one packet per cycle (PE link bandwidth).
        if self._pending[node]:
            self._pending[node].popleft()
            return 1
        return 0
