"""One run contract, every engine.

The object reference, the SoA fast path and the sharded coordinator
share ``repro.core.runloop.drive`` (termination), one survivor walk and
one rng draw order.  The same raise cycle and census on a drain timeout
and the same truncated record at a ``max_cycles`` ceiling are the
``drain-*`` and ``max-cycles-*`` cells of tests/test_engines_agree.py;
these tests pin both on the object engine in absolute numbers, the same
``progress`` sequence, and the two data-level halves of the contract,
``StatsCollector.merge`` and ``packet_draws``.

The drain-timeout cells were picked by sweeping 4x4 roco/generic cells
(seeds 1-39, ``drain_timeout`` 0 and 1) for runs that stall with
packets outstanding.  A healthy mesh only ever stalls on flits crossing
a wire or waiting out the generic router's RC stage, so single-flit
packets on the generic router are the cells whose census is not empty.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.core.config import SimulationConfig
from repro.core.runloop import packet_draws
from repro.core.simulator import DrainTimeoutError, Simulator
from repro.core.soa.engine import SoASimulator
from repro.core.soa.state import run_cycles
from repro.core.statistics import StatsCollector
from repro.core.types import DropReason, NodeId, Packet
from repro.faults.injector import ComponentFault
from repro.faults.model import Component
from repro.faults.schedule import FaultSchedule
from repro.harness.parallel import SimJob
from repro.harness.sharded import run_sharded_simulation
from repro.traffic import make_traffic

ENGINES = ("object", "soa", "sharded")

BASE = SimulationConfig(
    width=4,
    height=4,
    injection_rate=0.04,
    warmup_packets=10,
    measure_packets=60,
)


def run_engine(engine: str, config: SimulationConfig, **kwargs):
    if engine == "object":
        return Simulator(config).run(**kwargs)
    if engine == "soa":
        return SoASimulator(config).run(**kwargs)
    return run_sharded_simulation(config, (2, 2), **kwargs)


# ----------------------------------------------------------------------
# Drain timeout: same raise cycle, same census
# ----------------------------------------------------------------------

#: config overrides -> (raise cycle, outstanding, per_node, oldest_age)
DRAIN_CELLS = {
    "generic-1flit-s21": (
        dict(router="generic", flits_per_packet=1, injection_rate=0.1, seed=21),
        (51, 3, {NodeId(0, 1): 1, NodeId(1, 0): 1, NodeId(2, 2): 1}, 17),
    ),
    "generic-1flit-s19": (
        dict(router="generic", flits_per_packet=1, injection_rate=0.1, seed=19),
        (59, 3, {NodeId(0, 2): 1, NodeId(1, 1): 1, NodeId(3, 3): 1}, 19),
    ),
    "generic-1flit-s13": (
        dict(router="generic", flits_per_packet=1, injection_rate=0.1, seed=13),
        (2, 2, {NodeId(0, 0): 1, NodeId(2, 0): 1}, 1),
    ),
    # The lone outstanding packet is a tail flit on a wire: the census
    # finds it in the inbound link register of the router it is bound
    # for (as it does the third packet of the first two cells).
    "roco-tail-on-wire-s9": (
        dict(router="roco", seed=9),
        (30, 1, {NodeId(2, 3): 1}, 17),
    ),
}


@pytest.mark.parametrize("cell", DRAIN_CELLS)
def test_drain_timeout_cycle_and_census(cell):
    overrides, expected = DRAIN_CELLS[cell]
    with pytest.raises(DrainTimeoutError) as excinfo:
        Simulator(replace(BASE, drain_timeout=0, **overrides)).run()
    census = excinfo.value.census
    raised_at = int(str(excinfo.value).split(" at cycle ")[1].split(":")[0])
    outcome = raised_at, census.outstanding, census.per_node, census.oldest_age
    assert outcome == expected


@pytest.mark.parametrize(
    "fault_cycle", (None, 1000, 5), ids=("0", "1", "struck-before-the-stall")
)
def test_audit_cli_fails_a_fault_free_run_that_does_not_drain(
    fault_cycle, monkeypatch, capsys
):
    """A stall on a healthy mesh exits 1, even when a fault is due later:
    the event at cycle 1000 never strikes, so that run stops at the cell's
    cycle 30 like the run without one.  Once a fault has struck, the mesh
    may legally strand packets and the run stops silently (exit 0)."""
    overrides, _ = DRAIN_CELLS["roco-tail-on-wire-s9"]
    fault = ComponentFault(NodeId(2, 1), Component.CROSSBAR, module="column")
    faults = [] if fault_cycle is None else [fault]
    job = SimJob(
        replace(BASE, drain_timeout=0, audit=True, **overrides),
        schedule=FaultSchedule.at_cycle(fault_cycle or 0, faults),
    )
    monkeypatch.setattr("repro.__main__.job_from_args", lambda _: job)
    struck = fault_cycle == 5
    assert main([]) == (0 if struck else 1)
    out, err = capsys.readouterr()
    stalled = "repro: run did not complete: " in err and " at cycle 30: " in err
    assert stalled != struck
    assert ("audit: all invariants held" in err) == struck
    assert ("; 26 cycles simulated" in out) == struck


@pytest.mark.xfail(strict=True, raises=DrainTimeoutError)
@pytest.mark.parametrize("seed", (1, 10))
def test_roco_xy_drains_near_saturation(seed):
    """ROADMAP item 1(a): a healthy 8x8 RoCo/XY mesh must drain.

    It does not.  At seed 1 four column VCs of column 5 wait on each
    other through Table 1's floating ``dy`` VC, which admits both
    north- and southbound worms (the cycle is spelled out under
    "Deadlock discipline" in docs/modeling-notes.md).  Strict, so the
    fix has to remove the marker.
    """
    config = SimulationConfig(
        width=8,
        height=8,
        router="roco",
        routing="xy",
        traffic="uniform",
        injection_rate=0.30,
        warmup_packets=500,
        measure_packets=3000,
        drain_timeout=400,
        seed=seed,
    )
    assert Simulator(config).run().completion_probability == 1.0


# ----------------------------------------------------------------------
# max_cycles ceiling and progress cadence
# ----------------------------------------------------------------------

TRUNCATED = replace(BASE, router="roco", injection_rate=0.2, seed=3)


@pytest.mark.parametrize("max_cycles", (1, 40, 90))
def test_max_cycles_truncates_and_books_every_packet(max_cycles):
    # At cycles 40 and 90 a packet has its remaining flits all on wires,
    # where the survivor walk has to look (the inbound link registers)
    # or leave it unbooked.
    result = Simulator(replace(TRUNCATED, max_cycles=max_cycles)).run()
    assert (result.cycles, result.conserved) == (max_cycles, True)
    assert result.drops_by_reason.get(DropReason.UNDELIVERED.value, 0) > 0


def progress_sequence(engine: str) -> list[tuple]:
    seen: list[tuple] = []
    run_engine(
        engine,
        replace(TRUNCATED, max_cycles=90),
        progress=lambda *counts: seen.append(counts),
        progress_every=7,
    )
    return seen


@pytest.mark.parametrize("engine", ENGINES[1:])
def test_progress_sequence_matches_the_reference(engine):
    reference = progress_sequence("object")
    assert [cycle for cycle, _, _ in reference] == list(range(7, 90, 7))
    assert any(outstanding for _, _, outstanding in reference)
    assert progress_sequence(engine) == reference


# ----------------------------------------------------------------------
# StatsCollector.merge over a split run
# ----------------------------------------------------------------------

_events = st.one_of(
    st.tuples(st.just("tick")),
    st.tuples(st.just("measure")),
    st.tuples(st.just("deliver"), st.integers(1, 90), st.integers(0, 9), st.booleans()),
    st.tuples(st.just("drop"), st.sampled_from(list(DropReason)), st.booleans()),
    st.tuples(st.just("flit"), st.booleans()),
    st.tuples(st.just("create")),
    st.tuples(
        st.just("count"),
        st.sampled_from(
            [
                ("activity", "buffer_writes"),
                ("activity", "link_flits"),
                ("activity", "sa_requests"),
                ("contention", "row_requests"),
                ("contention", "column_contended"),
                ("scheduler", "router_steps"),
                ("scheduler", "sleeps"),
            ]
        ),
        st.integers(1, 5),
    ),
)


def _apply(stats: StatsCollector, event: tuple) -> None:
    kind = event[0]
    if kind == "deliver":
        packet = Packet(0, NodeId(0, 0), NodeId(1, 1), 1, 0)
        packet.delivered_cycle = event[1]
        stats.packet_delivered(packet, event[3], hops=event[2])
    elif kind == "drop":
        stats.packet_dropped(None, event[2], event[1])
    elif kind == "flit":
        stats.flit_delivered(event[1])
    elif kind == "create":
        stats.packet_created(None)
    elif kind == "count":
        (group, name), amount = event[1], event[2]
        counters = getattr(stats, group)
        setattr(counters, name, getattr(counters, name) + amount)


def _flat(stats: StatsCollector) -> dict:
    flat = dict(vars(stats))
    # Samples concatenate in part order, which interleaves differently
    # from the unsplit run; every consumer sorts or sums them.
    flat["latencies"] = sorted(stats.latencies)
    flat["hops"] = sorted(stats.hops)
    return flat


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_events, st.integers(0, 2)), max_size=60),
    st.integers(1, 3),
)
def test_merge_of_a_split_run_equals_the_unsplit_collector(events, num_parts):
    """Every part sees every cycle (tick, measurement start, scheduler
    cycle) but only its own share of the events, as shard tiles do."""
    whole = StatsCollector(num_nodes=16)
    parts = [StatsCollector(num_nodes=16) for _ in range(num_parts)]
    for cycle, (event, owner) in enumerate(events):
        for stats in [whole, *parts]:
            if event[0] == "tick":
                stats.tick()
                stats.scheduler.cycles += 1
            elif event[0] == "measure" and not stats.measuring:
                stats.start_measurement(cycle)
        _apply(whole, event)
        _apply(parts[owner % num_parts], event)
    assert _flat(StatsCollector.merge(parts)) == _flat(whole)


# ----------------------------------------------------------------------
# The shared draw order
# ----------------------------------------------------------------------


@pytest.mark.parametrize("routing", ("xy", "xy-yx"))
@pytest.mark.parametrize("traffic", ("uniform", "self_similar"))
def test_draws_run_to_exhaustion_equal_what_a_simulator_created(routing, traffic):
    config = replace(
        BASE, router="generic", routing=routing, traffic=traffic,
        injection_rate=0.15, seed=5,
    )
    sim = Simulator(config)
    created: list[Packet] = []
    sim.delivery_listeners.append(created.append)
    sim.drop_listeners.append(created.append)
    result = sim.run()
    assert result.generated_packets == config.total_packets
    created.sort(key=lambda packet: packet.pid)

    rng = random.Random(config.seed)
    nodes = [NodeId(x, y) for y in range(config.height) for x in range(config.width)]
    pattern = make_traffic(config.traffic)
    pattern.bind(config, rng, nodes)
    drawn = [
        packet
        for _, packets in packet_draws(config, pattern, rng, nodes)
        for packet in packets
    ]

    def identity(packet: Packet) -> tuple:
        return (packet.pid, packet.src, packet.dest, packet.created_cycle,
                packet.yx_first, packet.measured)

    assert [identity(p) for p in drawn] == [identity(p) for p in created]
    assert [p.measured for p in drawn] == (
        [False] * config.warmup_packets + [True] * config.measure_packets
    )
    assert result.injected_packets == config.measure_packets


def test_step_refuses_to_generate_out_of_order():
    sim = Simulator(replace(BASE, injection_rate=0.2))
    with pytest.raises(ValueError, match="consecutively from 0"):
        sim.step(5)


# ----------------------------------------------------------------------
# run_cycles is the engine's own step (fault events included)
# ----------------------------------------------------------------------


def test_run_cycles_applies_due_fault_events():
    config = replace(
        BASE, router="roco", injection_rate=0.2, seed=1, max_cycles=30
    )
    fault = ComponentFault(NodeId(2, 1), Component.CROSSBAR, module="column")

    def build() -> Simulator:
        return Simulator(config, schedule=FaultSchedule.at_cycle(5, [fault]))

    stepped = build()
    assert run_cycles(stepped, 30) == 30
    network = stepped.network
    assert network.has_faults
    assert network.routers[fault.node].modules[fault.module].dead
    assert stepped.faults == [fault]

    reference = build()
    reference.run()
    assert reference.network.cycle == 29
    stats, expected = network.stats, reference.network.stats
    assert stats.activity == expected.activity
    assert stats.total_delivered == expected.total_delivered
    assert stats.latencies == expected.latencies

    def mid_run_drops(collector: StatsCollector) -> dict:
        sweep = (DropReason.UNDELIVERED, DropReason.UNREACHABLE)
        return {
            reason: count
            for reason, count in collector.drops_by_reason.items()
            if reason not in sweep
        }

    assert mid_run_drops(stats) == mid_run_drops(expected)
    assert set(mid_run_drops(stats)) == {
        DropReason.BUFFERED_IN_DEAD,
        DropReason.INJECTION_BLOCKED,
    }
