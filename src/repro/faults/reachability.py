"""Reachability analysis over the faulted mesh.

After a topology-affecting fault the interesting question is no longer
"did the run drain?" but "which outstanding packets *could* still be
delivered?".  :class:`ReachabilityMap` answers it by breadth-first
search over the links the routing algorithm would actually offer — each
hop must be a candidate direction for the packet (so deterministic XY
traffic is not credited with paths it would never take), forwardable by
the current node (:meth:`Network.can_transit`) and accepted by the
receiving router's fault handshake.

Results are memoised per ``(start, dest, yx_first)`` and invalidated by
the runtime fault engine whenever a kill or recovery changes the
topology.  The map is only consulted on cold paths (end-of-run survivor
classification, drain-timeout census), never per cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.types import LOCAL, NodeId, Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.network import Network


class ReachabilityMap:
    """Memoised routing-aware reachability queries against one network."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self._memo: dict[tuple[NodeId, NodeId, bool], bool] = {}

    def invalidate(self) -> None:
        """Forget everything; the topology changed."""
        self._memo.clear()

    def reachable(
        self, start: NodeId, dest: NodeId, yx_first: bool = False
    ) -> bool:
        """Whether a packet at ``start`` can still reach ``dest``.

        ``yx_first`` matters only under XY-YX routing, where the variant
        committed at injection constrains the candidate directions.
        """
        key = (start, dest, yx_first)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._search(start, dest, yx_first)
            self._memo[key] = cached
        return cached

    def _search(self, start: NodeId, dest: NodeId, yx_first: bool) -> bool:
        if start == dest:
            return True
        network = self.network
        routing = network.routing
        probe = Packet(
            pid=-1, src=start, dest=dest, size=1, created_cycle=0, yx_first=yx_first
        )
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for direction in routing.candidates(node, probe):
                if direction is LOCAL:
                    continue
                if not network.can_transit(node, direction):
                    continue
                neighbor = network.neighbor_of(node, direction)
                if neighbor is None or neighbor in seen:
                    continue
                if not network.routers[neighbor].accepting(direction.opposite):
                    continue
                if neighbor == dest:
                    return True
                seen.add(neighbor)
                frontier.append(neighbor)
        return False
