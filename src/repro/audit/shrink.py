"""Delta-debugging shrinker for audit failures.

Given a scenario (config + optional fault schedule) whose audited run
raises an :class:`InvariantViolation`, :func:`shrink` minimises it while
preserving the failure: the cycle budget is cut to just past the
violation, warm-up is dropped, the packet count is bisected down,
fault-schedule events are ddmin-reduced, and a few alternate traffic
seeds are probed for an even smaller failing run.  The result can be
saved as a runnable JSON reproducer: ``python -m repro --audit --shrink
FILE`` writes one for a violating run, ``python -m repro --replay FILE``
re-runs it.

The run function is injectable so tests (and future checkers with
external triggers) can shrink scenarios whose corruption comes from a
fixture rather than the simulator itself; the default,
:func:`audit_failure`, simply runs the scenario with auditing on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.audit.invariants import InvariantViolation
from repro.core.config import SimulationConfig
from repro.faults.schedule import FaultSchedule

#: Reproducer file format tag.
SCHEMA = "repro-audit/v1"

#: A scenario runner: returns the violation the scenario raises, or
#: None when it runs clean (the candidate does not reproduce).
RunFn = Callable[[SimulationConfig, FaultSchedule | None], InvariantViolation | None]


def audit_failure(
    config: SimulationConfig, schedule: FaultSchedule | None = None
) -> InvariantViolation | None:
    """Run the scenario with auditing forced on; return its violation.

    Deadlock/drain failures are *not* violations — a shrunken candidate
    that merely deadlocks did not reproduce the state corruption.
    """
    from repro.core.simulator import DeadlockError, run_simulation

    try:
        run_simulation(replace(config, audit=True), schedule=schedule)
    except InvariantViolation as violation:
        return violation
    except DeadlockError:
        return None
    return None


@dataclass
class ShrinkResult:
    """The minimised scenario and the violation it still raises."""

    config: SimulationConfig
    schedule: FaultSchedule | None
    violation: InvariantViolation
    runs: int

    @property
    def total_packets(self) -> int:
        return self.config.total_packets


def shrink(
    config: SimulationConfig,
    schedule: FaultSchedule | None = None,
    run_fn: RunFn | None = None,
    max_runs: int = 128,
) -> ShrinkResult:
    """Minimise a failing scenario with bounded delta debugging.

    Raises ``ValueError`` when the initial scenario does not fail —
    there is nothing to shrink.  ``max_runs`` caps the total number of
    simulations; passes degrade gracefully when the budget runs out.
    """
    runner = run_fn if run_fn is not None else audit_failure
    runs = 0

    def attempt(
        cfg: SimulationConfig, sched: FaultSchedule | None
    ) -> InvariantViolation | None:
        nonlocal runs
        if runs >= max_runs:
            return None
        runs += 1
        return runner(cfg, sched)

    violation = attempt(config, schedule)
    if violation is None:
        raise ValueError("scenario does not fail under audit; nothing to shrink")
    best = [config, schedule, violation]

    def adopt(cfg: SimulationConfig, sched: FaultSchedule | None) -> bool:
        candidate = attempt(cfg, sched)
        if candidate is None:
            return False
        best[0], best[1], best[2] = cfg, sched, candidate
        return True

    def tighten_cycles() -> None:
        """Cut the run right past the (current) violation cycle."""
        limit = best[2].cycle + 1
        if limit < best[0].max_cycles:
            adopt(replace(best[0], max_cycles=limit), best[1])

    tighten_cycles()
    if best[0].warmup_packets:
        adopt(replace(best[0], warmup_packets=0), best[1])
        tighten_cycles()

    # Bisect the measured packet count towards 1.  Failure is not
    # strictly monotone in packet count, so this is a greedy probe: a
    # failing midpoint becomes the new ceiling, a clean one the floor.
    floor = 1
    while floor < best[0].measure_packets and runs < max_runs:
        probe = (floor + best[0].measure_packets) // 2
        if probe >= best[0].measure_packets:
            break
        if adopt(replace(best[0], measure_packets=probe), best[1]):
            tighten_cycles()
        else:
            floor = probe + 1

    if best[1] is not None and len(best[1]) > 1:
        # Adoption happens inside the pass; afterwards best[1] holds the
        # smallest failing schedule found.
        _ddmin_events(list(best[1].events), best, adopt)
        tighten_cycles()

    # Alternate seeds sometimes fail much earlier; probe a few at half
    # the current packet count and keep the first that still fails.
    half = max(1, best[0].measure_packets // 2)
    if half < best[0].measure_packets:
        for offset in (1, 2, 3):
            if runs >= max_runs:
                break
            candidate = replace(
                best[0], seed=config.seed + offset, measure_packets=half
            )
            if adopt(candidate, best[1]):
                tighten_cycles()
                break

    return ShrinkResult(
        config=best[0], schedule=best[1], violation=best[2], runs=runs
    )


def _ddmin_events(events: list, best: list, adopt) -> list:
    """Complement-style ddmin over fault-schedule events."""
    n = 2
    while len(events) >= 2:
        chunk = max(1, len(events) // n)
        reduced = False
        for start in range(0, len(events), chunk):
            candidate = events[:start] + events[start + chunk :]
            if adopt(best[0], FaultSchedule(candidate) if candidate else None):
                events = candidate
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if n >= len(events):
                break
            n = min(len(events), n * 2)
    if len(events) == 1 and adopt(best[0], None):
        events = []
    return events


# ----------------------------------------------------------------------
# Reproducer files
# ----------------------------------------------------------------------


def reproducer_payload(
    config: SimulationConfig,
    schedule: FaultSchedule | None,
    violation: InvariantViolation,
) -> dict:
    return {
        "schema": SCHEMA,
        "config": config.to_payload(),
        "schedule": schedule.to_payload() if schedule else None,
        "violation": {
            "invariant": violation.invariant,
            "cycle": violation.cycle,
            "message": violation.message,
            "node": [violation.node.x, violation.node.y]
            if violation.node is not None
            else None,
            "pid": violation.pid,
        },
    }


def save_reproducer(
    path: "str | Path",
    config: SimulationConfig,
    schedule: FaultSchedule | None,
    violation: InvariantViolation,
) -> None:
    payload = reproducer_payload(config, schedule, violation)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_reproducer(
    path: "str | Path",
) -> tuple[SimulationConfig, FaultSchedule | None, dict]:
    """Load a reproducer; the returned config has auditing forced on."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"not an audit reproducer (schema {payload.get('schema')!r})"
        )
    config = replace(
        SimulationConfig.from_payload(payload["config"]), audit=True
    )
    schedule = (
        FaultSchedule.from_payload(payload["schedule"])
        if payload.get("schedule")
        else None
    )
    return config, schedule, payload.get("violation", {})
