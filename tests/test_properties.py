"""Property-based system tests over randomised small simulations.

These drive the whole simulator with hypothesis-chosen parameters and
check the invariants that must hold for ANY configuration: conservation
of flits, bounded credits, per-worm flit ordering and full delivery in
fault-free networks.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.core.simulator import Simulator

from .conftest import backlog

sim_params = st.fixed_dictionaries(
    {
        "router": st.sampled_from(["generic", "path_sensitive", "roco"]),
        "routing": st.sampled_from(["xy", "xy-yx", "adaptive"]),
        "traffic": st.sampled_from(["uniform", "transpose", "neighbor"]),
        "injection_rate": st.sampled_from([0.05, 0.12, 0.2]),
        "seed": st.integers(1, 10_000),
        "flits_per_packet": st.sampled_from([1, 2, 4]),
    }
)


def build(params):
    return Simulator(
        SimulationConfig(
            width=3,
            height=3,
            warmup_packets=10,
            measure_packets=60,
            max_cycles=20_000,
            **params,
        )
    )


@given(sim_params)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fault_free_networks_deliver_everything(params):
    sim = build(params)
    result = sim.run()
    assert result.completion_probability == 1.0
    assert result.dropped_packets == 0


@given(sim_params)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_flit_conservation_and_empty_buffers(params):
    sim = build(params)
    result = sim.run()
    stats = sim.network.stats
    assert stats.delivered_flits == result.delivered_packets * params[
        "flits_per_packet"
    ]
    for router in sim.network.routers.values():
        for vc in router.all_vcs():
            assert vc.empty
            assert vc.owner_pid is None
            assert vc.expected == 0


@given(sim_params)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_credits_restored_after_drain(params):
    sim = build(params)
    sim.run()
    final_cycle = sim.network.cycle + 10
    for router in sim.network.routers.values():
        for vc in router.all_vcs():
            assert vc.credits(final_cycle) == vc.effective_depth


@given(sim_params)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_worms_arrive_in_order_and_complete(params):
    """Track per-packet flit arrival: sequential seqs, tail last."""
    sim = build(params)
    arrivals: dict[int, list[int]] = {}
    original_eject = sim.network.eject

    def spying_eject(flit, node, cycle, early):
        arrivals.setdefault(flit.packet.pid, []).append(flit.seq)
        original_eject(flit, node, cycle, early)

    sim.network.eject = spying_eject
    sim.run()
    assert arrivals
    for pid, seqs in arrivals.items():
        assert seqs == sorted(seqs), f"packet {pid} flits out of order"
        assert seqs == list(range(params["flits_per_packet"]))


@given(sim_params)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_packet_conservation_at_measurement_boundaries(params):
    """Injected == delivered + dropped + in-flight, at every boundary.

    The simulator reports progress at fixed cycle boundaries; at each
    one we audit the books: every packet ever generated is either
    delivered, dropped, or still in flight — and the flits physically
    resident in the system (source queues plus VC buffers) never exceed
    the flits of in-flight packets.
    """
    sim = build(params)
    delivered: list = []
    dropped: list = []
    sim.delivery_listeners.append(delivered.append)
    sim.drop_listeners.append(dropped.append)
    boundaries = 0

    def audit(cycle, generated, outstanding):
        nonlocal boundaries
        boundaries += 1
        assert generated == len(delivered) + len(dropped) + outstanding
        resident = sum(backlog(source) for source in sim.sources.values())
        for router in sim.network.routers.values():
            for vc in router.all_vcs():
                resident += len(vc.queue)
        assert resident <= outstanding * params["flits_per_packet"]

    result = sim.run(progress=audit, progress_every=25)
    assert boundaries > 0, "run too short to cross a measurement boundary"
    # Termination is the last boundary: everything is accounted for and
    # nothing is left resident anywhere.
    assert result.injected_packets == result.delivered_packets
    assert len(delivered) == sim._generated
    assert not dropped
    assert sum(backlog(source) for source in sim.sources.values()) == 0


@given(sim_params, st.integers(0, 2))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_latency_at_least_pipeline_minimum(params, _pad):
    """No packet can beat 3 cycles/hop + serialization physics."""
    sim = build(params)
    done = []
    sim.network.on_packet_delivered = lambda p: (
        sim._on_packet_done(p),
        done.append(p),
    )[0]
    sim.run()
    for p in done:
        hops = abs(p.dest.x - p.src.x) + abs(p.dest.y - p.src.y)
        assert p.latency >= 3 * hops + (p.size - 1)
