"""The activity-driven scheduling core: it really sleeps, and safely.

The network steps only *active* routers by default; ``full_sweep=True``
restores the original step-every-router schedule.  That the two are
observationally indistinguishable — every exported result field,
across traffic patterns, routings, routers, fault sets and seeds — is
tests/test_engines_agree.py's ``object`` row.  These tests pin what
makes the scheduler worth having (dormant routers really do sleep), a
fault path where sleeping would be easiest to get wrong (a bypassed
router forwarding double-routed traffic), the owner wait (a napper
waiting on an owned VC, woken by each site that releases one) and the
progress callback.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.core import buffer, simulator
from repro.core.config import RouterConfig
from repro.core.simulator import Simulator, run_simulation
from repro.core.types import NodeId
from repro.faults import ComponentFault
from repro.faults.model import Component
from repro.harness.export import result_record
from repro.routers import ROUTER_CLASSES
from repro.routers.base import BaseRouter
from repro.routers.roco.path_set import ROW

from .conftest import small_config
from .test_lone_allocate import seeded

# ----------------------------------------------------------------------
# The scheduler actually sleeps (otherwise this is all pointless)
# ----------------------------------------------------------------------


def test_active_scheduler_skips_router_cycles():
    result = run_simulation(small_config())
    sched = result.scheduler
    assert not sched.full_sweep
    assert 0.0 < sched.duty_cycle < 1.0
    assert sched.router_steps < sched.router_slots
    assert sched.wakeups > 0
    assert sched.sleeps > 0


def test_full_sweep_steps_everything():
    result = run_simulation(small_config(), full_sweep=True)
    sched = result.scheduler
    assert sched.full_sweep
    assert sched.duty_cycle == 1.0
    assert sched.router_steps == 16 * sched.cycles


# ----------------------------------------------------------------------
# Fault paths: activity under hardware recycling
# ----------------------------------------------------------------------


def test_bypassed_rc_faulty_router_wakes_and_forwards():
    """Hardware Recycling: a router whose RC is dead still forwards
    double-routed flits — so it must keep waking for through-traffic
    (the ``bypassed-rc`` cell of tests/test_engines_agree.py holds both
    schedulers to one record)."""
    victim = NodeId(1, 1)
    faults = [ComponentFault(victim, Component.RC, module=ROW)]
    # West-to-east traffic through row 1 must transit the victim's
    # faulty Row-Module.
    sim = Simulator(small_config(traffic="transpose", seed=9), faults=faults)
    result = sim.run()
    assert result.delivered_packets > 0
    router = sim.network.router_at(victim)
    assert router.modules[ROW].rc_faulty
    # The bypassed router was woken for forwarded traffic and went back
    # to sleep in between — it is not pinned awake, and not comatose.
    assert 0 < router.steps_taken < result.cycles


# ----------------------------------------------------------------------
# Progress callback: post-step values (regression pin)
# ----------------------------------------------------------------------


def test_progress_reports_post_step_outstanding():
    """``progress(cycle, generated, outstanding)`` must report counts
    that include the cycle's own deliveries — the pre-fix code snapshot
    ``_outstanding`` before stepping, overstating the backlog."""
    sim = Simulator(small_config(seed=31))
    seen: list[tuple[int, int, int]] = []
    post_step: dict[int, int] = {}

    original_step = sim.network.step

    def instrumented_step(cycle):
        original_step(cycle)
        post_step[cycle] = sim._outstanding

    sim.network.step = instrumented_step
    sim.run(progress=lambda c, g, o: seen.append((c, g, o)), progress_every=1)

    assert seen, "progress callback never fired"
    for cycle, generated, outstanding in seen:
        assert outstanding == post_step[cycle]
        assert generated <= sim.config.total_packets


# ----------------------------------------------------------------------
# Owner waits: a head whose every admissible VC is owned naps
# ----------------------------------------------------------------------


def owner_cell(router: str, seed: int, rate: float, flits: int, node: NodeId) -> tuple:
    """A 4x4 XY mesh whose worms, longer than the two-flit buffers, stall
    behind a crossbar fault at ``node``: heads upstream find every VC
    they may take owned by a stalled worm."""
    config = small_config(
        router=router, seed=seed, injection_rate=rate, flits_per_packet=flits,
        warmup_packets=10, measure_packets=80, fault_drop_timeout=100,
        drain_timeout=400,
        router_config=RouterConfig.for_architecture(router, buffer_depth=2),
    )
    return config, [ComponentFault(node, Component.CROSSBAR, module=ROW)]


#: name -> (cell, what ends one of its owner waits).  ``tail``: the
#: awaited VC is released by a tail launch in the front half, and the
#: napper allocates in that cycle; ``purge-before`` / ``purge-after``: a
#: stall-timeout purge in the allocate loop releases it, from a router
#: before / after the napper in row-major order; ``reclaim``: it is
#: released and claimed again in one allocate loop, after the napper's
#: VA, so the napper may nap only because the check is made at nap time
#: and must register with the new owner then.
OWNER_CELLS = {
    "owner-tail": (owner_cell("roco", 1, 0.3, 4, NodeId(2, 1)), "tail"),
    "owner-purge-before": (
        owner_cell("path_sensitive", 1, 0.3, 6, NodeId(1, 2)), "purge-before"),
    "owner-purge-after": (
        owner_cell("generic", 1, 0.15, 4, NodeId(2, 1)), "purge-after"),
    "owner-reclaim": (
        owner_cell("path_sensitive", 6, 0.15, 6, NodeId(2, 1)), "reclaim"),
}


def observe(cell, monkeypatch, full_sweep=False) -> tuple[tuple, int]:
    """Everything a run shows — record, scheduler and activity counters,
    each router's ``steps_taken`` — and its ``allocate`` calls."""
    calls = [0]
    with monkeypatch.context() as patch:
        for cls in ROUTER_CLASSES.values():
            def allocate(self, cycle, _allocate=cls.__dict__["allocate"]):
                calls[0] += 1
                _allocate(self, cycle)

            patch.setattr(cls, "allocate", allocate)
        config, faults = cell
        sim = Simulator(config, faults=faults, full_sweep=full_sweep)
        result = sim.run()
        stats = sim.network.stats
        seen = (result_record(result), asdict(stats.scheduler), asdict(stats.activity),
                [router.steps_taken for router in sim.network._router_list])
        sim.teardown()
    return seen, calls[0]


def without_owner_waits(cell, monkeypatch) -> tuple[tuple, int]:
    """:func:`observe` with no owner wait kept: the blocked and starved
    naps only."""
    with monkeypatch.context() as patch:
        patch.setattr(BaseRouter, "_await_owners", lambda self, *args: None)
        return observe(cell, monkeypatch)


@pytest.mark.parametrize("name", sorted(OWNER_CELLS))
def test_owner_waits_change_nothing_but_the_steps_run(name, monkeypatch):
    """Record, scheduler and activity counters and every router's
    ``steps_taken`` equal those of the schedule without owner waits;
    record and activity counters equal the full sweep's (whose scheduler
    counters and steps differ by design: it steps every router).  Fewer
    ``allocate`` calls run than logical steps, and than without owner
    waits."""
    cell = OWNER_CELLS[name][0]
    seen, calls = observe(cell, monkeypatch)
    reference, reference_calls = without_owner_waits(cell, monkeypatch)
    assert seen == reference
    sweep, _ = observe(cell, monkeypatch, full_sweep=True)
    assert (seen[0], seen[2]) == (sweep[0], sweep[2])
    assert calls < reference_calls < seen[1]["router_steps"]


def test_owner_cells_reach_their_event(monkeypatch):
    """Each cell sees what it is named for, on a router napping on an
    owner wait."""
    seen: dict[str, int] = {}
    waiting: set = set()  # routers whose current nap holds an owner wait
    at: dict = {"site": None, "seq": 0}
    allocated: dict = {}  # router -> seq of its last allocate
    released: dict = {}  # id(vc) -> (cycle, seq) of its last release
    nap = BaseRouter.nap
    rouse = buffer.VirtualChannel.rouse_owner_waiters
    release = buffer.VirtualChannel.release_owner

    def count(label):
        seen[label] = seen.get(label, 0) + 1

    def napped(self, cycle):
        took = nap(self, cycle)
        waiting.discard(self)
        epoch = self.network.fault_epoch
        waits = [
            vc.owner_wait for vc in self.all_vcs()
            if took and vc.queue and vc.out_vc is None and vc.owner_wait
            and vc.owner_wait[:2] == (epoch, vc.queue[0].packet.pid)
            and not (vc.verdict and vc.verdict[:2] == (epoch, vc.queue[0].packet.pid))
        ]
        if waits:
            waiting.add(self)
        for wait in waits:
            for target in wait[3]:
                when = released.get(id(target))
                if when and when[0] == cycle and when[1] > allocated[self]:
                    count("reclaim")
        return took

    def roused(self):
        for router in self.owner_waiters:
            if router in waiting and router._nap_until is not None:
                place = router.network._alloc_at
                if at["site"] == "traverse" and place == -1:
                    count("tail")
                elif at["site"] == "purge" and place is not None and place >= 0:
                    count("purge-before" if router._index > place else "purge-after")
        rouse(self)

    def releases(self):
        at["seq"] += 1
        released[id(self)] = (self.router.network.cycle, at["seq"])
        release(self)

    def inside(method, site):
        def wrapper(self, *args):
            at["site"] = site
            try:
                return method(self, *args)
            finally:
                at["site"] = None
        return wrapper

    monkeypatch.setattr(BaseRouter, "nap", napped)
    monkeypatch.setattr(buffer.VirtualChannel, "rouse_owner_waiters", roused)
    monkeypatch.setattr(buffer.VirtualChannel, "release_owner", releases)
    monkeypatch.setattr(BaseRouter, "traverse", inside(BaseRouter.traverse, "traverse"))
    monkeypatch.setattr(BaseRouter, "purge_packet",
                        inside(BaseRouter.purge_packet, "purge"))
    for cls in ROUTER_CLASSES.values():
        def allocate(self, cycle, _allocate=cls.__dict__["allocate"]):
            at["seq"] += 1
            allocated[self] = at["seq"]
            _allocate(self, cycle)

        monkeypatch.setattr(cls, "allocate", allocate)
    for name, ((config, faults), event) in OWNER_CELLS.items():
        seen.clear()
        Simulator(config, faults=faults).run()
        assert seen.get(event), f"{name}: no {event} event in {seen}"


#: name -> (class, method, [(old, new), ...]): a release site that stops
#: rousing the routers waiting on the VC it frees, or a nap that trusts
#: the owners its VA saw.  Some owner-wait cell must fail each.
OWNER_MUTANTS = {
    "traverse: tail release unreported": (
        BaseRouter, "traverse",
        [("                if target.owner_waiters is not None:\n"
          "                    target.rouse_owner_waiters()\n", "")],
    ),
    "release_owner: unreported": (
        buffer.VirtualChannel, "release_owner",
        [("        if self.owner_waiters is not None:\n"
          "            self.rouse_owner_waiters()\n", "")],
    ),
    "purge: release unreported": (
        BaseRouter, "purge_packet", [("vc.release_owner()", "vc.owner_pid = None")],
    ),
    "Source.inject: tail release unreported": (
        simulator.Source, "inject",
        [("# Tail pushed: release the VC for the next worm.\n"
          "            self.vc.release_owner()",
          "# Tail pushed: release the VC for the next worm.\n"
          "            self.vc.owner_pid = None")],
    ),
    "nap: owners not checked at nap time": (
        BaseRouter, "nap",
        [("                    for owned in wait[3]:\n"
          "                        if owned.owner_pid is None:\n"
          "                            return False\n", "")],
    ),
}

#: Each cell's observations without owner waits, run once.
_REFERENCES: dict = {}


@pytest.mark.parametrize("name", sorted(OWNER_MUTANTS))
def test_an_owner_cell_catches_a_seeded_fault(name, monkeypatch):
    cls, method, edits = OWNER_MUTANTS[name]
    for cell_name, (cell, _event) in OWNER_CELLS.items():
        if cell_name not in _REFERENCES:
            _REFERENCES[cell_name] = without_owner_waits(cell, monkeypatch)[0]
    monkeypatch.setattr(cls, method, seeded(cls, method, edits))
    caught = [cell_name for cell_name, (cell, _event) in OWNER_CELLS.items()
              if observe(cell, monkeypatch)[0] != _REFERENCES[cell_name]]
    assert caught, f"{name}: every owner cell still equals its reference"
