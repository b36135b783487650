"""Graceful degradation under *runtime* fault campaigns.

The paper's Figure 11/12 sweeps apply faults statically before the run.
This benchmark asks the harder operational question: routers die while
traffic is in flight — buffered worms must be salvaged, committed
look-ahead routes severed and re-routed — and the architectures are
compared under the *identical* fault timeline.  Schedules are prefixes
of one staggered critical-fault sequence (k = 0, 1, 2, 4 kills), so
each curve point adds faults without moving the earlier ones.
"""

from repro.core.config import SimulationConfig
from repro.core.types import NodeId
from repro.faults import Component, ComponentFault, FaultEvent, FaultSchedule
from repro.harness.benchbed import Outcome, benchmark
from repro.harness.campaign import run_campaign
from repro.harness.parallel import SimJob

ARCHITECTURES = ("generic", "path_sensitive", "roco")
FAULT_COUNTS = (0, 1, 2, 4)

#: One staggered kill sequence; every schedule below is a prefix of it.
#: Distinct rows and columns so each kill severs fresh XY paths.
KILL_SEQUENCE = (
    FaultEvent(40, ComponentFault(NodeId(2, 2), Component.VA, "row")),
    FaultEvent(80, ComponentFault(NodeId(5, 3), Component.CROSSBAR, "column")),
    FaultEvent(120, ComponentFault(NodeId(3, 5), Component.VA, "row")),
    FaultEvent(160, ComponentFault(NodeId(6, 6), Component.MUX_DEMUX, "column")),
)


def config_for(router: str, warmup: int, measure: int) -> SimulationConfig:
    return SimulationConfig(
        width=8,
        height=8,
        router=router,
        routing="xy",
        traffic="uniform",
        injection_rate=0.15,
        warmup_packets=warmup,
        measure_packets=measure,
        max_cycles=30_000,
        seed=7,
    )


def run_curves(executor, warmup: int, measure: int) -> dict[str, dict[int, float]]:
    """completion probability per (architecture, cumulative fault count)."""
    jobs = []
    for router in ARCHITECTURES:
        for count in FAULT_COUNTS:
            schedule = FaultSchedule(list(KILL_SEQUENCE[:count]))
            jobs.append(
                SimJob.of(config_for(router, warmup, measure), schedule=schedule)
            )
    records = executor.run_jobs(jobs)
    curves: dict[str, dict[int, float]] = {}
    index = 0
    for router in ARCHITECTURES:
        curves[router] = {}
        for count in FAULT_COUNTS:
            curves[router][count] = records[index]["completion_probability"]
            index += 1
    return curves


@benchmark(
    "dynamic_faults",
    headline="roco_completion_4_kills",
    unit="probability",
)
def bench(ctx):
    """RoCo's completion with 4 staggered mid-run kills on the mesh."""
    warmup, measure = ctx.pick(quick=(60, 250), full=(100, 500))
    curves = run_curves(ctx.executor, warmup, measure)
    print("Dynamic fault campaign (8x8, XY, staggered kills mid-run)")
    header = "  ".join(f"k={count}" for count in FAULT_COUNTS)
    print(f"{'router':>16s}  {header}")
    for router in ARCHITECTURES:
        row = "  ".join(f"{curves[router][k]:.3f}" for k in FAULT_COUNTS)
        print(f"{router:>16s}  {row}")

    for router in ARCHITECTURES:
        curve = curves[router]
        # Fault-free completion is (near-)perfect.
        assert curve[0] > 0.95
        # Completion degrades (weakly) monotonically with fault count.
        for lo, hi in zip(FAULT_COUNTS, FAULT_COUNTS[1:]):
            assert curve[hi] <= curve[lo] + 0.02, (
                f"{router}: completion rose from k={lo} to k={hi}"
            )

    # Graceful degradation: RoCo rides above both baselines at every
    # fault count, strictly so once the mesh has accumulated kills.
    for count in FAULT_COUNTS[1:]:
        assert curves["roco"][count] >= curves["generic"][count]
        assert curves["roco"][count] >= curves["path_sensitive"][count]
    assert curves["roco"][4] > curves["generic"][4]

    # The resilience staircase from one instrumented RoCo campaign:
    # service measured against faults accumulated at injection time.
    campaign = run_campaign(
        SimJob.of(
            config_for("roco", warmup, measure),
            schedule=FaultSchedule(list(KILL_SEQUENCE)),
        )
    )
    ctx.absorb(campaign.result)
    assert campaign.conserved
    staircase = campaign.probe.delivered_by_fault_count()
    for point in staircase:
        print(
            f"  {point.fault_count} faults at injection -> "
            f"{point.delivered_fraction:.3f} delivered "
            f"({point.delivered}/{point.generated})"
        )
    assert staircase[0].delivered_fraction >= staircase[-1].delivered_fraction

    return Outcome(
        curves["roco"][4],
        details={
            "curves": curves,
            "roco_staircase": [
                {
                    "fault_count": point.fault_count,
                    "delivered_fraction": point.delivered_fraction,
                }
                for point in staircase
            ],
        },
    )
