"""Classic bit-permutation traffic patterns (Dally & Towles, ch. 3).

Beyond the paper's workloads, these are the standard synthetic
permutations used to stress specific aspects of a topology/routing
pair.  Node coordinates are flattened to a node index whose bits are
permuted:

* **bit-complement** — dest index = ~src: every packet crosses the
  network centre (worst-case bisection load);
* **bit-reverse** — dest index = reverse(src bits): FFT-style traffic;
* **shuffle** — dest index = rotate-left(src bits): perfect-shuffle
  stages of sorting/FFT networks.

Patterns require power-of-two node counts (bit permutations need whole
bits; ``SimulationConfig`` rejects any other size); self-addressed nodes
fall back to uniform destinations so every node offers load.
"""

from __future__ import annotations

import random

from repro.core.config import SimulationConfig
from repro.core.types import NodeId
from repro.traffic.base import TrafficPattern


class _BitPermutationTraffic(TrafficPattern):
    """Shared machinery: flatten, permute bits, unflatten."""

    def __init__(self) -> None:
        super().__init__()
        self._bits = 0

    def bind(
        self, config: SimulationConfig, rng: random.Random, nodes: list[NodeId]
    ) -> None:
        super().bind(config, rng, nodes)
        self._bits = len(nodes).bit_length() - 1

    def _index(self, node: NodeId) -> int:
        return node.y * self.config.width + node.x

    def _node(self, index: int) -> NodeId:
        return NodeId(index % self.config.width, index // self.config.width)

    def _permute(self, index: int) -> int:
        raise NotImplementedError

    def destination(self, src: NodeId) -> NodeId:
        dest = self._node(self._permute(self._index(src)) % len(self.nodes))
        if dest == src:
            return self._random_other_node(src)
        return dest


class BitComplementTraffic(_BitPermutationTraffic):
    """dest = bitwise complement of the source index."""

    name = "bit_complement"

    def _permute(self, index: int) -> int:
        return ~index & ((1 << self._bits) - 1)


class BitReverseTraffic(_BitPermutationTraffic):
    """dest = source index with its bits reversed."""

    name = "bit_reverse"

    def _permute(self, index: int) -> int:
        result = 0
        for bit in range(self._bits):
            if index & (1 << bit):
                result |= 1 << (self._bits - 1 - bit)
        return result


class ShuffleTraffic(_BitPermutationTraffic):
    """dest = source index rotated left by one bit (perfect shuffle)."""

    name = "shuffle"

    def _permute(self, index: int) -> int:
        mask = (1 << self._bits) - 1
        return ((index << 1) | (index >> (self._bits - 1))) & mask
