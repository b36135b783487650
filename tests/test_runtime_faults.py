"""System tests for the runtime fault-campaign engine.

The load-bearing contracts:

* **equivalence** — an empty schedule is bit-identical to a fault-free
  run, and a schedule firing entirely at cycle 0 is bit-identical to
  the same faults given as static faults, for every Table-3 component
  on both schedulers (one engine strikes both, on one reference count);
* **conservation** — every generated packet ends as exactly one of
  delivered / dropped-with-reason (under sampled schedules, and with
  the schedulers agreeing bit for bit: tests/test_engines_agree.py);
* **reactions** — mid-run kills salvage buffered worms, sever committed
  routes, and classify end-of-run survivors; transients heal.
"""

import pytest

from repro.core.simulator import (
    DeadlockError,
    DrainTimeoutError,
    Simulator,
    run_simulation,
)
from repro.core.types import DropReason, NodeId
from repro.faults import (
    Component,
    ComponentFault,
    FaultEvent,
    FaultSchedule,
)
from repro.harness.export import result_record

from .conftest import small_config

ARCHITECTURES = ("generic", "path_sensitive", "roco")


def center_kill(cycle, duration=None):
    """A VA kill at the mesh centre — critical on every architecture."""
    return FaultSchedule.at_cycle(
        cycle, [ComponentFault(NodeId(1, 1), Component.VA, "row")], duration
    )


def assert_conserved(result):
    assert result.conserved, (
        f"leaked packets: generated={result.generated_packets} "
        f"delivered={result.total_delivered} dropped={result.total_dropped} "
        f"reasons={result.drops_by_reason}"
    )


class TestScheduleEquivalence:
    @pytest.mark.parametrize("router", ARCHITECTURES)
    @pytest.mark.parametrize("full_sweep", [False, True])
    def test_empty_schedule_is_fault_free_run(self, router, full_sweep):
        config = small_config(router=router)
        plain = run_simulation(config, full_sweep=full_sweep)
        empty = run_simulation(
            config, schedule=FaultSchedule([]), full_sweep=full_sweep
        )
        assert result_record(plain) == result_record(empty)

    @pytest.mark.parametrize("component", list(Component))
    @pytest.mark.parametrize("router", ARCHITECTURES)
    @pytest.mark.parametrize("full_sweep", [False, True])
    def test_cycle_zero_schedule_matches_static_injection(
        self, router, full_sweep, component
    ):
        config = small_config(router=router)
        faults = [ComponentFault(NodeId(1, 1), component, "row", vc_position=1)]
        runtime = run_simulation(
            config,
            schedule=FaultSchedule.at_cycle(0, faults),
            full_sweep=full_sweep,
        )
        static = run_simulation(config, faults=faults, full_sweep=full_sweep)
        assert result_record(runtime) == result_record(static)

    @pytest.mark.parametrize("router", ARCHITECTURES)
    def test_transient_expiry_keeps_a_static_fault(self, router):
        """A static fault and a transient on the same effect share one
        reference count: the transient's expiry cannot heal the static."""
        config = small_config(router=router)
        fault = ComponentFault(NodeId(1, 1), Component.VA, "row")
        simulator = Simulator(
            config,
            faults=[fault],
            schedule=FaultSchedule([FaultEvent(50, fault, duration=50)]),
        )
        both = result_record(simulator.run())
        assert both["cycles"] > 100  # the transient healed mid-run
        victim = simulator.network.routers[fault.node]
        modules = getattr(victim, "modules", None)
        assert victim.dead if modules is None else modules["row"].dead
        alone = result_record(run_simulation(config, faults=[fault]))
        assert (both.pop("num_faults"), alone.pop("num_faults")) == (2, 1)
        assert both == alone


class TestConservation:
    def test_multi_fault_campaign_conserves(self):
        schedule = FaultSchedule(
            [
                FaultEvent(80, ComponentFault(NodeId(1, 1), Component.VA, "row")),
                FaultEvent(
                    160, ComponentFault(NodeId(2, 2), Component.CROSSBAR, "column")
                ),
                FaultEvent(
                    240,
                    ComponentFault(NodeId(0, 2), Component.BUFFER, "row"),
                    duration=100,
                ),
            ]
        )
        result = run_simulation(small_config(), schedule=schedule)
        assert_conserved(result)

    def test_reasons_only_from_the_enum(self):
        result = run_simulation(small_config(), schedule=center_kill(cycle=100))
        valid = {reason.value for reason in DropReason}
        assert set(result.drops_by_reason) <= valid


class TestRuntimeReactions:
    def test_midrun_kill_salvages_with_fault_reasons(self):
        """A kill while traffic flows produces fault-attributed drops."""
        result = run_simulation(
            small_config(injection_rate=0.2, measure_packets=300),
            schedule=center_kill(cycle=150),
        )
        assert_conserved(result)
        fault_reasons = {
            DropReason.BUFFERED_IN_DEAD.value,
            DropReason.ROUTE_SEVERED.value,
            DropReason.ARRIVED_AT_DEAD.value,
            DropReason.STALL_TIMEOUT.value,
            DropReason.UNREACHABLE.value,
        }
        assert fault_reasons & set(result.drops_by_reason), (
            f"expected fault-attributed drops, got {result.drops_by_reason}"
        )

    def test_transient_outperforms_permanent(self):
        config = small_config(injection_rate=0.15, measure_packets=300)
        permanent = run_simulation(config, schedule=center_kill(cycle=150))
        transient = run_simulation(
            config, schedule=center_kill(cycle=150, duration=120)
        )
        assert_conserved(permanent)
        assert_conserved(transient)
        assert transient.total_delivered >= permanent.total_delivered

    def test_faults_recorded_on_result(self):
        schedule = center_kill(cycle=100)
        result = run_simulation(small_config(), schedule=schedule)
        assert [f for f in result.faults] == [e.fault for e in schedule]

    @pytest.mark.parametrize("router", ARCHITECTURES)
    def test_campaign_after_drain_still_terminates(self, router):
        """Faults striking after traffic finished must not wedge the run."""
        result = run_simulation(
            small_config(router=router, injection_rate=0.05,
                         warmup_packets=5, measure_packets=30),
            schedule=center_kill(cycle=15_000),
        )
        assert_conserved(result)


class TestDrainTimeoutCensus:
    """Satellite: typed drain-timeout error with a stranded-packet census."""

    def _wedge(self):
        """A run guaranteed to stall without the fault-timeout escape."""
        config = small_config(
            router="generic",
            injection_rate=0.2,
            warmup_packets=10,
            measure_packets=120,
            drain_timeout=250,
        )
        simulator = Simulator(
            config,
            faults=[ComponentFault(NodeId(1, 1), Component.VA, "row")],
        )
        # Disown the fault so neither the per-packet stall drop nor the
        # paper's inactivity rule fires: the run must hard-stall, which
        # is exactly the condition the census exists to explain.
        simulator.network.has_faults = False
        return simulator

    def test_raises_typed_error_with_census(self):
        simulator = self._wedge()
        with pytest.raises(DrainTimeoutError) as excinfo:
            simulator.run()
        error = excinfo.value
        assert isinstance(error, DeadlockError)
        census = error.census
        assert census.outstanding > 0
        assert census.per_node
        assert sum(census.per_node.values()) > 0
        assert census.oldest_age > 0
        assert census.dead_modules.get(NodeId(1, 1)) == ("node",)

    def test_census_rendered_into_message(self):
        simulator = self._wedge()
        with pytest.raises(DrainTimeoutError) as excinfo:
            simulator.run()
        message = str(excinfo.value)
        assert "no progress" in message
        assert "outstanding" in message
        assert "(1,1)" in message
