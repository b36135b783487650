"""The purge record: a drop purges only the routers its packet reached.

``Network.drop_packet`` purges, in row-major order, the routers a packet
claimed a VC in (``VirtualChannel.claim`` records them).  That is only
right if the record covers every router the full scan would have found
holding the packet — a buffered flit, an ``owner_pid`` or an
``active_pid`` — and if it forgets a packet once the packet is gone.
A network with no record (built bare, or restored from a snapshot)
purges every router.
"""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.simulator import Simulator
from repro.core.soa.state import decode_state, encode_state, run_cycles
from repro.core.types import NodeId

from .test_base_router import inject_worm, network
from .test_base_router import run_cycles as step_network
from .test_engines_agree import CELLS

#: The faulty oracle cells: all three routers, static and transient faults.
FAULTY = [name for name in CELLS if name.startswith((
    "faults-", "midrun-", "transient-kill", "sampled-schedule", "targeted-",
    "module-kill-", "blocking-", "backpressure-"))]


def holders(network: Network, pid: int) -> set:
    """What the full scan finds: routers holding a trace of ``pid``."""
    return {
        router for router in network._router_list
        if any(vc.owner_pid == pid or vc.active_pid == pid
               or any(flit.packet.pid == pid for flit in vc.queue)
               for vc in router.all_vcs())
    }


def watch(monkeypatch, network: Network) -> dict:
    """Check every drop on ``network`` against the full scan; count them."""
    seen = {"drops": 0}
    drop = Network.drop_packet

    def checked(self, packet, cycle, *args):
        live = packet.dropped_cycle is None and packet.delivered_cycle is None
        if self is network and live:
            seen["drops"] += 1
            reached = self._reached
            recorded = (set(self._router_list) if reached is None
                        else set(reached.get(packet.pid, ())))
            missed = holders(self, packet.pid) - recorded
            assert not missed, f"pid {packet.pid}: {sorted(r.node for r in missed)}"
        drop(self, packet, cycle, *args)
        if self is network and live:
            assert self._reached is None or packet.pid not in self._reached
            assert not holders(self, packet.pid), f"pid {packet.pid} left behind"

    monkeypatch.setattr(Network, "drop_packet", checked)
    return seen


@pytest.mark.parametrize("name", FAULTY)
def test_the_record_covers_every_router_a_dropped_packet_reached(name, monkeypatch):
    job, _, ends = CELLS[name]
    sim = Simulator(job.config, faults=list(job.faults), schedule=job.schedule)
    network = sim.network
    assert network._reached == {}
    seen = watch(monkeypatch, network)

    def delivered(packet):
        assert packet.pid not in network._reached

    sim.delivery_listeners.append(delivered)
    result = sim.run()
    assert seen["drops"] == result.total_dropped
    assert (ends == "drained") is (result.total_dropped == 0)
    assert network._reached == {}, "the record outlived its packets"


def test_a_healthy_simulator_and_the_reference_keep_no_record():
    config = SimulationConfig(width=4, height=4, measure_packets=20, warmup_packets=0)
    assert Simulator(config).network._reached is None
    assert Simulator(config, faults=[], full_sweep=True).network._reached is None
    job = CELLS["faults-generic-critical"][0]
    sweep = Simulator(job.config, faults=list(job.faults), full_sweep=True)
    assert sweep.network._reached is None


def test_a_worm_placed_by_hand_is_recorded(monkeypatch):
    """``inject_worm`` claims its VC directly, not through a Source."""
    net = network("roco")
    net.keep_purge_record()
    net.has_faults = True
    packet, _ = inject_worm(net, NodeId(0, 0), NodeId(3, 0), size=4)
    step_network(net, 4)  # the worm spans several routers
    assert len(net._reached[packet.pid]) > 1
    assert set(net._reached[packet.pid]) >= holders(net, packet.pid)
    seen = watch(monkeypatch, net)
    net.drop_packet(packet, net.cycle)
    assert seen["drops"] == 1


def test_a_restored_network_purges_every_router(monkeypatch):
    """A snapshot carries no claims: the restored network keeps no record,
    and a drop still clears every trace of its packet."""
    config = SimulationConfig(width=4, height=4, router="generic", injection_rate=0.3,
                              warmup_packets=0, measure_packets=60, seed=3)
    donor = Simulator(config)
    run_cycles(donor, 30)
    restored = decode_state(encode_state(donor), config)
    network = restored.network
    assert network._reached is None
    live = {flit.packet.pid: flit.packet for router in network._router_list
            for vc in router.all_vcs() for flit in vc.queue}
    packet = max(live.values(), key=lambda p: len(holders(network, p.pid)))
    assert len(holders(network, packet.pid)) > 1
    seen = watch(monkeypatch, network)
    network.drop_packet(packet, network.cycle)
    assert seen["drops"] == 1
    # Restoring into a network that kept a record stops it too.
    network.keep_purge_record()
    network._router_list[0].all_vcs()[0].restore(())
    assert network._reached is None
