"""Fault-campaign runner: simulations under runtime fault schedules.

A *campaign* is an ordinary simulation with a
:class:`~repro.faults.schedule.FaultSchedule` striking mid-run (and any
static faults striking at cycle 0), plus the resilience instrumentation
a degradation study needs: the conservation ledger, service timelines
and the delivered-fraction-vs-fault-count staircase.
:func:`run_campaign` wires all of that together so callers (the CLI,
the dynamic-fault benchmark, tests) get one object back.

To fan out over many schedules or configs, run
``SimJob.of(config, schedule=s)`` jobs through a
:class:`~repro.harness.parallel.ParallelExecutor` with a
:class:`~repro.harness.resilient.RetryPolicy`: one job raising
``DrainTimeoutError`` (or crashing its worker) is quarantined as a
failure record while every other job completes, and the result cache
keys on the schedule payload, so repeated campaigns cost zero new
simulations (docs/resilient-execution.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.simulator import SimulationResult, Simulator
from repro.core.soa.errors import ensure_supported
from repro.harness.parallel import SimJob
from repro.harness.sharded import ensure_sharded_supported
from repro.metrics.resilience import PacketAccounting, ResilienceProbe


@dataclass
class CampaignResult:
    """A finished fault campaign: the run plus its resilience views."""

    result: SimulationResult
    accounting: PacketAccounting
    probe: ResilienceProbe
    job: SimJob

    @property
    def delivered_fraction(self) -> float:
        return self.accounting.delivered_fraction

    @property
    def conserved(self) -> bool:
        return self.accounting.conserved

    def summary_lines(self) -> list[str]:
        """Human-readable campaign report (CLI output).

        Static faults count as fault events striking at cycle 0; an
        event is topology-affecting when its strike killed a node or a
        module.
        """
        events = len(self.job.faults) + len(self.job.schedule or ())
        kills = len(self.probe.simulator.topology_changes)
        lines = [
            f"fault events: {events} ({kills} topology-affecting)",
            f"packets: {self.accounting.describe()}",
        ]
        staircase = self.probe.delivered_by_fault_count()
        if len(staircase) > 1:
            steps = ", ".join(
                f"{point.fault_count} faults -> {point.delivered_fraction:.3f}"
                for point in staircase
            )
            lines.append(f"delivered fraction by cumulative faults: {steps}")
        return lines


def run_campaign(
    job: SimJob,
    *,
    full_sweep: bool = False,
    window: int = 100,
) -> CampaignResult:
    """Run ``job`` — its static faults and its schedule — instrumented.

    ``window`` is the timeline bin width in cycles; ``full_sweep``
    selects the reference scheduler (results are bit-identical either
    way — asserted by tests/test_engines_agree.py).

    The probe instruments the object engine, the only one that takes
    faults: a config choosing another engine is refused by that
    engine's own envelope check (``BackendUnsupportedError``), as
    :func:`~repro.core.simulator.run_simulation` would refuse it.  The
    run is torn down when it returns or raises, as ``run_simulation``'s
    is; the probe keeps what it counted and the simulator it listened
    to, whose counts stay readable.
    """
    config = job.config
    if config.shards not in (None, (1, 1)):
        ensure_sharded_supported(config, job.faults, job.schedule)
    elif config.backend != "object":
        ensure_supported(config, job.faults, job.schedule)
    simulator = Simulator(
        config, faults=list(job.faults), schedule=job.schedule, full_sweep=full_sweep
    )
    probe = ResilienceProbe(simulator, window=window)
    try:
        result = simulator.run()
    finally:
        simulator.teardown()
    return CampaignResult(
        result=result,
        accounting=PacketAccounting.from_result(result),
        probe=probe,
        job=job,
    )
