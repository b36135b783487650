"""Delta-debugging shrinker for failed runs.

A run *fails* when it raises one of
:data:`~repro.core.runloop.RUN_FAILURES`: a healthy mesh stopped
draining, or an audited run broke an invariant.  Given a
:class:`~repro.harness.parallel.SimJob` that fails, :func:`shrink`
minimises it while it keeps failing the same way: the cycle budget is
cut to just past the failure, warm-up is dropped, the packet count is
bisected down, the static faults and then the fault-schedule events are
ddmin-reduced, and a few alternate traffic seeds are probed for an even
smaller failing run.  ``python -m repro --shrink FILE`` saves the result
as the job's payload; ``python -m repro --replay FILE`` runs it.

The run function is injectable so tests can shrink jobs whose failure
comes from a fixture rather than the simulator itself; the default,
:func:`run_failure`, runs the job as given.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.core.runloop import RUN_FAILURES
from repro.faults.schedule import FaultSchedule

if TYPE_CHECKING:  # pragma: no cover - the audit package stays light
    from repro.harness.parallel import SimJob

#: A job runner: returns the failure the job raises, or None when it
#: runs clean (the candidate does not reproduce).
RunFn = Callable[["SimJob"], Exception | None]


def run_failure(job: SimJob) -> Exception | None:
    """Run ``job``; the run failure it raised, or None."""
    from repro.core.simulator import run_simulation

    try:
        run_simulation(job.config, faults=list(job.faults), schedule=job.schedule)
    except RUN_FAILURES as failure:
        return failure
    return None


@dataclass
class ShrinkResult:
    """The minimised job and the failure it still raises."""

    job: SimJob
    failure: Exception
    runs: int


def shrink(
    job: SimJob, run_fn: RunFn | None = None, max_runs: int = 128
) -> ShrinkResult:
    """Minimise a failing job with bounded delta debugging.

    A candidate reproduces when it fails with the original failure's
    type.  Raises ``ValueError`` when the job does not fail — there is
    nothing to shrink.  ``max_runs`` caps the total number of runs;
    passes degrade gracefully when the budget runs out.
    """
    runner = run_fn if run_fn is not None else run_failure
    runs = 0

    def attempt(candidate: SimJob) -> Exception | None:
        nonlocal runs
        if runs >= max_runs:
            return None
        runs += 1
        return runner(candidate)

    failure = attempt(job)
    if failure is None:
        raise ValueError("the job does not fail; nothing to shrink")
    best = [job, failure]

    def adopt(candidate: SimJob) -> bool:
        found = attempt(candidate)
        if type(found) is not type(failure):
            return False
        best[:] = [candidate, found]
        return True

    def configured(**changes) -> SimJob:
        return replace(best[0], config=replace(best[0].config, **changes))

    def tighten_cycles() -> None:
        """Cut the run right past the (current) failure cycle."""
        limit = best[1].cycle + 1
        if limit < best[0].config.max_cycles:
            adopt(configured(max_cycles=limit))

    tighten_cycles()
    if best[0].config.warmup_packets:
        adopt(configured(warmup_packets=0))
        tighten_cycles()

    # Bisect the measured packet count towards 1.  Failure is not
    # strictly monotone in packet count, so this is a greedy probe: a
    # failing midpoint becomes the new ceiling, a clean one the floor.
    floor = 1
    while floor < best[0].config.measure_packets and runs < max_runs:
        probe = (floor + best[0].config.measure_packets) // 2
        if adopt(configured(measure_packets=probe)):
            tighten_cycles()
        else:
            floor = probe + 1

    def faults(kept: list) -> SimJob:
        return replace(best[0], faults=tuple(kept))

    def schedule(kept: list) -> SimJob:
        return replace(best[0], schedule=FaultSchedule(kept) if kept else None)

    # The static faults, then the schedule's events.  Adoption happens
    # inside each pass, so best[0] ends with the smallest of each found.
    _ddmin(list(best[0].faults), faults, adopt)
    _ddmin(list(best[0].schedule or ()), schedule, adopt)
    tighten_cycles()

    # Alternate seeds sometimes fail much earlier; probe a few at half
    # the current packet count and keep the first that still fails.
    half = max(1, best[0].config.measure_packets // 2)
    if half < best[0].config.measure_packets:
        for offset in (1, 2, 3):
            if runs >= max_runs:
                break
            if adopt(configured(seed=job.config.seed + offset, measure_packets=half)):
                tighten_cycles()
                break

    return ShrinkResult(job=best[0], failure=best[1], runs=runs)


def _ddmin(items: list, rebuild: Callable[[list], SimJob], adopt) -> None:
    """Complement-style ddmin: drop chunks of ``items`` while the job
    ``rebuild`` makes of the rest is adopted (still fails)."""
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        for start in range(0, len(items), chunk):
            candidate = items[:start] + items[start + chunk :]
            if adopt(rebuild(candidate)):
                items = candidate
                n = max(2, n - 1)
                break
        else:
            if n >= len(items):
                break
            n = min(len(items), n * 2)
    if len(items) == 1:
        adopt(rebuild([]))
