"""The activity-driven scheduling core: it really sleeps, and safely.

The network steps only *active* routers by default; ``full_sweep=True``
restores the original step-every-router schedule.  That the two are
observationally indistinguishable — every exported result field,
across traffic patterns, routings, routers, fault sets and seeds — is
tests/test_engines_agree.py's ``object`` row.  These tests pin what
makes the scheduler worth having (dormant routers really do sleep), a
fault path where sleeping would be easiest to get wrong (a bypassed
router forwarding double-routed traffic) and the progress callback.
"""

from __future__ import annotations

from repro.core.simulator import Simulator, run_simulation
from repro.core.types import NodeId
from repro.faults import ComponentFault
from repro.faults.model import Component
from repro.routers.roco.path_set import ROW

from .conftest import small_config

# ----------------------------------------------------------------------
# The scheduler actually sleeps (otherwise this is all pointless)
# ----------------------------------------------------------------------


def test_active_scheduler_skips_router_cycles():
    result = run_simulation(small_config())
    sched = result.scheduler
    assert not sched.full_sweep
    assert 0.0 < sched.duty_cycle < 1.0
    assert sched.skipped_router_cycles > 0
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
