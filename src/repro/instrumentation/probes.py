"""Simulation probes: observe a run without perturbing it.

Probes attach to a :class:`~repro.core.simulator.Simulator` *before*
``run()`` and collect spatial/behavioural detail the aggregate
statistics hide — per-link utilisation, per-pair latency, dropped
packets.  They read counters the core already maintains (link send
counts, delivery callbacks) so the simulation hot path stays untouched.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.core.simulator import Simulator
from repro.core.types import Direction, NodeId, Packet


class LinkUtilizationProbe:
    """Per-link flit rate over the whole run.

    Utilisation is ``flits sent / simulated cycles`` per directed link;
    1.0 means the link carried a flit every cycle.
    """

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self._baseline: dict[tuple[NodeId, Direction], int] = {}
        for node, router in simulator.network.routers.items():
            for direction, port in router.outputs.items():
                self._baseline[(node, direction)] = port.link.sends

    def utilization(self) -> dict[tuple[NodeId, Direction], float]:
        """Flits per cycle for every directed link, post-run."""
        cycles = max(1, self.simulator.network.cycle)
        result = {}
        for node, router in self.simulator.network.routers.items():
            for direction, port in router.outputs.items():
                sends = port.link.sends - self._baseline[(node, direction)]
                result[(node, direction)] = sends / cycles
        return result

    def hottest_links(self, count: int = 5) -> list[tuple[NodeId, Direction, float]]:
        ranked = sorted(
            ((n, d, u) for (n, d), u in self.utilization().items()),
            key=lambda item: -item[2],
        )
        return ranked[:count]

    def node_throughput(self) -> dict[NodeId, float]:
        """Total outbound flits/cycle per router (heatmap input)."""
        per_node: dict[NodeId, float] = defaultdict(float)
        for (node, _), util in self.utilization().items():
            per_node[node] += util
        return dict(per_node)


class LatencyMatrixProbe:
    """Per-(source, destination) latency and per-node averages."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self._samples: dict[tuple[NodeId, NodeId], list[int]] = defaultdict(list)
        simulator.delivery_listeners.append(self._record)

    def _record(self, packet: Packet) -> None:
        if packet.measured:
            self._samples[(packet.src, packet.dest)].append(packet.latency)

    def matrix(self) -> dict[tuple[NodeId, NodeId], float]:
        return {
            pair: sum(vals) / len(vals) for pair, vals in self._samples.items()
        }

    def per_source(self) -> dict[NodeId, float]:
        """Average latency of traffic *originating* at each node."""
        sums: dict[NodeId, list[int]] = defaultdict(list)
        for (src, _), vals in self._samples.items():
            sums[src].extend(vals)
        return {n: sum(v) / len(v) for n, v in sums.items()}

    def worst_pairs(self, count: int = 5) -> list[tuple[NodeId, NodeId, float]]:
        ranked = sorted(
            ((s, d, m) for (s, d), m in self.matrix().items()),
            key=lambda item: -item[2],
        )
        return ranked[:count]


@dataclass
class DropRecord:
    packet_id: int
    src: NodeId
    dest: NodeId
    age: int


class DropProbe:
    """Collects every dropped packet with its age at discard time."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self.records: list[DropRecord] = []
        simulator.drop_listeners.append(self._record)

    def _record(self, packet: Packet) -> None:
        self.records.append(
            DropRecord(
                packet_id=packet.pid,
                src=packet.src,
                dest=packet.dest,
                age=(packet.dropped_cycle or 0) - packet.created_cycle,
            )
        )

    def drops_by_destination(self) -> dict[NodeId, int]:
        out: dict[NodeId, int] = defaultdict(int)
        for record in self.records:
            out[record.dest] += 1
        return dict(out)
