"""Tests for resilience metrics, the campaign runner and the run loop's
no-progress rule."""

from types import SimpleNamespace

import pytest

from repro.core.simulator import Simulator
from repro.core.runloop import DrainTimeoutError, StrandedCensus, drive
from repro.core.types import NodeId
from repro.faults import Component, ComponentFault, FaultSchedule
from repro.harness.campaign import run_campaign
from repro.harness.parallel import ResultCache, SimJob, execute_job, job_key
from repro.metrics.resilience import PacketAccounting, ResilienceProbe

from .conftest import small_config


def center_kill(cycle, duration=None):
    return FaultSchedule.at_cycle(
        cycle, [ComponentFault(NodeId(1, 1), Component.VA, "row")], duration
    )


class TestPacketAccounting:
    def test_from_fault_free_result(self, baseline_results):
        accounting = PacketAccounting.from_result(baseline_results["roco"])
        assert accounting.conserved
        assert accounting.generated > 0
        assert accounting.delivered + accounting.dropped == accounting.generated

    def test_delivered_fraction_bounds(self, baseline_results):
        accounting = PacketAccounting.from_result(baseline_results["roco"])
        assert 0.0 <= accounting.delivered_fraction <= 1.0

    def test_describe_mentions_reasons(self):
        accounting = PacketAccounting(
            generated=10, delivered=8, dropped=2,
            drops_by_reason={"stall_timeout": 2},
        )
        assert accounting.conserved
        text = accounting.describe()
        assert "generated=10" in text
        assert "stall_timeout=2" in text

    def test_leak_detected(self):
        leaky = PacketAccounting(generated=10, delivered=8, dropped=1)
        assert not leaky.conserved


class TestResilienceProbe:
    def test_rejects_nonpositive_window(self):
        simulator = Simulator(small_config())
        with pytest.raises(ValueError, match="window"):
            ResilienceProbe(simulator, window=0)

    def test_timelines_cover_the_run(self):
        simulator = Simulator(small_config())
        probe = ResilienceProbe(simulator, window=50)
        result = simulator.run()
        throughput = probe.throughput_timeline()
        assert throughput
        delivered = sum(point.delivered for point in probe.windows)
        assert delivered == result.total_delivered
        dropped = sum(point.dropped for point in probe.windows)
        assert dropped == result.total_dropped
        starts = [start for start, _ in throughput]
        assert starts == sorted(starts)
        assert all(start % 50 == 0 for start in starts)

    def test_latency_timeline_positive(self):
        simulator = Simulator(small_config())
        probe = ResilienceProbe(simulator, window=100)
        simulator.run()
        latency = probe.latency_timeline()
        assert latency
        assert all(value > 0 for _, value in latency)

    def test_fault_count_staircase(self):
        schedule = center_kill(cycle=150)
        simulator = Simulator(
            small_config(injection_rate=0.15, measure_packets=300),
            schedule=schedule,
        )
        probe = ResilienceProbe(simulator, window=100)
        result = simulator.run()
        staircase = probe.delivered_by_fault_count()
        assert [point.fault_count for point in staircase] == sorted(
            point.fault_count for point in staircase
        )
        assert sum(point.generated for point in staircase) == (
            result.generated_packets
        )
        # Pre-fault service is (near-)perfect; post-fault cannot beat it.
        pre = staircase[0]
        assert pre.fault_count == 0
        assert pre.delivered_fraction >= staircase[-1].delivered_fraction

    def test_delivered_fraction_matches_accounting(self):
        simulator = Simulator(small_config(), schedule=center_kill(cycle=120))
        probe = ResilienceProbe(simulator, window=100)
        result = simulator.run()
        accounting = PacketAccounting.from_result(result)
        assert probe.delivered_fraction() == pytest.approx(
            accounting.delivered_fraction
        )


class TestCampaignRunner:
    def test_run_campaign_end_to_end(self):
        campaign = run_campaign(
            SimJob.of(small_config(), schedule=center_kill(cycle=120))
        )
        assert campaign.conserved
        assert 0.0 < campaign.delivered_fraction <= 1.0
        lines = campaign.summary_lines()
        assert any("fault events: 1" in line for line in lines)
        assert any("generated=" in line for line in lines)

    def test_schedulers_agree_through_campaign(self):
        job = SimJob.of(small_config(), schedule=center_kill(cycle=120))
        active = run_campaign(job)
        sweep = run_campaign(job, full_sweep=True)
        assert active.accounting == sweep.accounting

    def test_a_kill_of_any_component_is_a_staircase_step(self):
        """An RC fault takes a generic node off-line: it is counted."""
        fault = ComponentFault(NodeId(1, 1), Component.RC, "row")
        campaign = run_campaign(
            SimJob.of(
                small_config(router="generic"),
                schedule=FaultSchedule.at_cycle(60, [fault]),
            )
        )
        assert campaign.result.total_dropped > 0
        assert "fault events: 1 (1 topology-affecting)" in campaign.summary_lines()
        staircase = campaign.probe.delivered_by_fault_count()
        assert [point.fault_count for point in staircase] == [0, 1]

    def test_a_static_kill_counts_from_cycle_zero(self):
        kill = ComponentFault(NodeId(1, 1), Component.VA, "row")
        campaign = run_campaign(SimJob.of(small_config(), [kill]))
        assert campaign.probe.simulator.topology_changes == [0]
        staircase = campaign.probe.delivered_by_fault_count()
        assert [point.fault_count for point in staircase] == [1]
        assert campaign.summary_lines()[0] == "fault events: 1 (1 topology-affecting)"


class TestCampaignJobs:
    def test_schedule_free_key_unchanged(self):
        """Adding the schedule field must not invalidate existing caches."""
        config = small_config()
        assert job_key(SimJob.of(config)) == job_key(
            SimJob(config=config, faults=(), schedule=None)
        )

    def test_schedule_changes_key(self):
        config = small_config()
        bare = job_key(SimJob.of(config))
        scheduled = job_key(SimJob.of(config, schedule=center_kill(100)))
        other = job_key(SimJob.of(config, schedule=center_kill(200)))
        assert bare != scheduled
        assert scheduled != other

    def test_campaign_jobs_cache_correctly(self, tmp_path):
        from repro.harness.parallel import ParallelExecutor

        job = SimJob.of(
            small_config(measure_packets=60, warmup_packets=10),
            schedule=center_kill(80),
        )
        cache = ResultCache(tmp_path)
        executor = ParallelExecutor(workers=1, cache=cache)
        first = executor.run_jobs([job])
        assert executor.last_stats.simulated == 1
        again = executor.run_jobs([job])
        assert executor.last_stats.cache_hits == 1
        assert first == again
        assert first == [execute_job(job)]


class ScriptedEngine:
    """The engine surface :func:`drive` reads, with scripted counts.

    ``script(cycle)`` returns the post-step ``(generated, outstanding,
    moves)`` of ``cycle``.
    """

    def __init__(self, script, *, total_packets=10, drain_timeout=5,
                 max_cycles=100, has_faults=False):
        self.config = SimpleNamespace(
            total_packets=total_packets,
            drain_timeout=drain_timeout,
            max_cycles=max_cycles,
        )
        self.script = script
        self.has_faults = has_faults
        self.stepped: list[int] = []
        self.generated = self.outstanding = self.moves = 0

    def step(self, cycle):
        self.stepped.append(cycle)
        self.generated, self.outstanding, self.moves = self.script(cycle)

    def stranded_census(self, cycle):
        return StrandedCensus(self.outstanding, {NodeId(1, 1): 1}, cycle, {}, 0)


def _wedged_at(cycle_wedged):
    """All ten packets created; flits move until ``cycle_wedged``."""
    return lambda cycle: (10, 3, min(cycle, cycle_wedged))


class TestNoProgressRule:
    def test_run_ends_once_budget_is_delivered(self):
        engine = ScriptedEngine(lambda c: (min(c + 1, 10), 0 if c >= 12 else 1, c))
        assert drive(engine) == 12
        assert engine.stepped == list(range(13))

    def test_healthy_stall_raises_drain_timeout(self):
        engine = ScriptedEngine(_wedged_at(20), drain_timeout=5)
        with pytest.raises(DrainTimeoutError) as excinfo:
            drive(engine)
        error = excinfo.value
        assert error.cycle == 20 + 5 + 1
        assert error.census.outstanding == 3
        assert "no progress for 5 cycles" in str(error)

    def test_faulty_stall_ends_the_run_quietly(self):
        engine = ScriptedEngine(_wedged_at(20), drain_timeout=5, has_faults=True)
        assert drive(engine) == 20 + 5 + 1

    def test_idle_gap_with_nothing_outstanding_runs_on(self):
        """A healthy network between two arrivals is waiting, not stuck."""
        engine = ScriptedEngine(
            lambda c: (1 if c < 40 else 10, 0, 0), drain_timeout=5
        )
        assert drive(engine) == 40

    def test_moving_flits_count_as_progress(self):
        """Flits that keep moving hold off the rule even while the
        outstanding count is flat: only ``max_cycles`` ends the run."""
        engine = ScriptedEngine(lambda c: (10, 3, c), drain_timeout=5, max_cycles=50)
        assert drive(engine) == 49

    def test_progress_reported_every_interval_after_cycle_zero(self):
        engine = ScriptedEngine(lambda c: (10, 0 if c >= 25 else 2, c))
        calls: list[tuple[int, int, int]] = []
        drive(engine, lambda *counts: calls.append(counts), progress_every=10)
        assert calls == [(10, 10, 2), (20, 10, 2)]
