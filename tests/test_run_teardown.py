"""A finished run frees itself.

A run's object graph is cyclic: routers and their network name each
other, ports name the neighbour downstream, VCs their router and the
router napping on them, the network calls back into its simulator and
the simulator's draw generator holds one of its methods.  The owner of a
run nothing inspects afterwards — ``run_simulation`` and
``run_sharded_simulation``, so every worker, server, benchbed and shrink
run — and ``run_campaign``, whose probe outlives the run, tear it down
when the run returns or raises (``Simulator.teardown``,
``TileSimulator.teardown``), and refcounting frees it there, not at the
next full collection.

With the cyclic collector off, each cell runs once warm (imports and
memoised tables are not the run's garbage), then again: afterwards
``gc.collect()`` must find nothing, and no simulator, network or
router of it may be left alive.  The cells cover every engine, router
architecture, fault kind and the audit, runs cut at ``max_cycles``,
stalled runs and one cut short by an invariant violation, and a fault
campaign.
"""

import gc
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.runloop import RUN_FAILURES
from repro.core.shard import TileSimulator
from repro.core.simulator import Simulator, run_simulation
from repro.core.types import grid_nodes
from repro.faults.injector import random_faults
from repro.faults.schedule import FaultSchedule
from repro.harness.campaign import run_campaign
from repro.harness.parallel import SimJob
from repro.harness.sharded import run_sharded_simulation
from repro.routers.base import BaseRouter

from .test_engines_agree import CELLS as AGREE_CELLS
from .test_run_contract import BASE, DRAIN_CELLS

NODES = grid_nodes(BASE.width, BASE.height)

#: variant -> (config overrides, run_simulation keywords)
VARIANTS = {
    "healthy": ({}, {}),
    "static": ({}, {"faults": random_faults(NODES, 2, random.Random(3), True)}),
    "schedule": (
        {},
        {"schedule": FaultSchedule.sampled(
            NODES, count=3, seed=4, mtbf=40, duration=60
        )},
    ),
    "audit": ({"audit": True}, {}),
    # Cut mid-run: flits are left in buffers and on wires.
    "max-cycles": ({"max_cycles": 40}, {}),
}

#: engine -> (config overrides, the routers and variants it runs)
ENGINES = {
    "object": ({}, ("generic", "path_sensitive", "roco"), tuple(VARIANTS)),
    "shards": ({"shards": (2, 1)}, ("generic", "roco"), ("healthy", "max-cycles")),
    "soa": ({"backend": "soa"}, ("generic", "roco"), ("healthy", "max-cycles")),
}

CELLS = {
    f"{engine}-{router}-{variant}": (
        replace(
            BASE,
            router=router,
            injection_rate=0.1,
            **overrides,
            **VARIANTS[variant][0],
        ),
        VARIANTS[variant][1],
    )
    for engine, (overrides, routers, variants) in ENGINES.items()
    for router in routers
    for variant in variants
}
# Healthy meshes that stop draining: the run raises DrainTimeoutError.
for _stall in ("generic-1flit-s21", "roco-tail-on-wire-s9"):
    for _engine, (_overrides, _, _) in ENGINES.items():
        CELLS[f"{_engine}-drain-{_stall}"] = (
            replace(BASE, drain_timeout=0, **DRAIN_CELLS[_stall][0], **_overrides),
            {},
        )


def outcome(call) -> str:
    """How ``call()`` (one run) ended: ``"returned"`` or the failure."""
    try:
        call()
    except RUN_FAILURES as failure:
        return type(failure).__name__
    return "returned"


def run_objects() -> set[int]:
    """Ids of the live objects a run is made of."""
    kinds = (Simulator, TileSimulator, Network, BaseRouter)
    return {id(obj) for obj in gc.get_objects() if isinstance(obj, kinds)}


def leftover(call) -> tuple[str, Counter, int]:
    """How a warm run ended, what the cyclic collector finds after it, and
    how many of its simulators, networks and routers are still alive.

    The last is not the collector's count: a cycle through a suspended
    generator's frame is freed by a collection without being counted.
    """
    outcome(call)
    gc.collect()
    gc.disable()
    try:
        before = run_objects()
        ended = outcome(call)
        alive = len(run_objects() - before)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return ended, found, alive


@pytest.mark.parametrize("cell", CELLS)
def test_a_finished_run_leaves_no_cyclic_garbage(cell):
    config, kwargs = CELLS[cell]
    ended, found, alive = leftover(lambda: run_simulation(config, **kwargs))
    assert ended == ("DrainTimeoutError" if "-drain-" in cell else "returned")
    assert not found, f"cyclic garbage after the run: {found.most_common(8)}"
    assert alive == 0


def test_a_one_tile_sharded_run_leaves_no_cyclic_garbage():
    """``shards=(1, 1)`` runs the reference simulator; it is torn down too."""
    config = replace(BASE, router="roco")
    ended, found, alive = leftover(lambda: run_sharded_simulation(config, (1, 1)))
    assert (ended, alive) == ("returned", 0)
    assert not found, f"cyclic garbage after the run: {found.most_common(8)}"


def test_a_run_failing_while_routers_nap_leaves_no_cyclic_garbage(monkeypatch):
    """A violation cuts a faulty run short while routers starve-nap behind
    a fault: output VCs still name the routers napping on their credits
    (``VirtualChannel.waiter``) and worms still hold those VCs."""
    from repro.audit import invariants

    class Napping(invariants.InvariantChecker):
        name = "napping"

        def check(self, engine, snapshot, cycle) -> None:
            for router in engine.network._router_list:
                if any(vc.waiter is not None for vc in router.all_vcs()):
                    engine.fail(self.name, cycle, "a router naps on a credit")

    monkeypatch.setattr(
        "repro.audit.engine.default_checkers",
        lambda: [*invariants.default_checkers(), Napping()],
    )
    job = AGREE_CELLS["backpressure-generic"][0]
    config = replace(job.config, audit=True)
    ended, found, alive = leftover(
        lambda: run_simulation(config, faults=list(job.faults))
    )
    assert (ended, alive) == ("InvariantViolation", 0)
    assert not found, f"cyclic garbage after the run: {found.most_common(8)}"


def test_a_finished_campaign_leaves_no_cyclic_garbage():
    """Static faults plus a schedule; the result's probe, which names the
    simulator it listened to, is dropped with the result."""
    config, static = CELLS["object-roco-static"]
    _, scheduled = CELLS["object-roco-schedule"]
    job = SimJob.of(config, static["faults"], scheduled["schedule"])
    ended, found, alive = leftover(lambda: run_campaign(job))
    assert (ended, alive) == ("returned", 0)
    assert not found, f"cyclic garbage after the run: {found.most_common(8)}"


def test_a_faulty_cell_strikes_its_faults():
    """The fault variants are not healthy runs in disguise."""
    for variant in ("static", "schedule"):
        config, kwargs = CELLS[f"object-roco-{variant}"]
        assert run_simulation(config, **kwargs).faults


@pytest.mark.parametrize("router", ["roco", "generic"])
def test_a_live_16x16_network_holds_no_empty_deques(router):
    """What a run holds while it lives is mostly its buffers and links,
    and each of their FIFOs is bounded (buffer depth, link delay): a
    list holds one in 56 bytes where an empty deque takes 760.  With a
    deque per VC queue, credit ledger and link, this build traced
    ~8 MB; with lists, under 3."""
    config = SimulationConfig(width=16, height=16, router=router)
    Network(config)  # warm: imports and per-shape tables are not the build's
    tracemalloc.start()
    try:
        network = Network(config)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 4.5e6, f"a 16x16 {router} network holds {held / 1e6:.2f} MB"
    for node in network._router_list:
        for vc in node.all_vcs():
            assert type(vc.queue) is list and type(vc._releases) is list
        for port in node.outputs.values():
            assert type(port.link._in_flight) is list
