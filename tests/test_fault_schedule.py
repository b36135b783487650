"""Unit tests for deterministic fault schedules (repro.faults.schedule)."""

import pytest

from repro.core.config import RouterConfig
from repro.core.types import NodeId
from repro.faults import (
    CRITICAL_FAULT_COMPONENTS,
    Component,
    ComponentFault,
    FaultEvent,
    FaultSchedule,
    module_vc_count,
)


def nodes_4x4():
    return [NodeId(x, y) for y in range(4) for x in range(4)]


def nodes_8x8():
    return [NodeId(x, y) for y in range(8) for x in range(8)]


def fault_at(x, y, component=Component.VA, module="row"):
    return ComponentFault(NodeId(x, y), component, module=module)


class TestFaultEvent:
    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            FaultEvent(-1, fault_at(0, 0))

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(5, fault_at(0, 0), duration=0)

    def test_permanent_event_has_no_clear_cycle(self):
        event = FaultEvent(10, fault_at(0, 0))
        assert not event.transient
        assert event.clear_cycle is None

    def test_transient_event_clears_after_duration(self):
        event = FaultEvent(10, fault_at(0, 0), duration=25)
        assert event.transient
        assert event.clear_cycle == 35


class TestFaultSchedule:
    def test_events_sorted_by_cycle_stably(self):
        a = FaultEvent(50, fault_at(0, 0))
        b = FaultEvent(10, fault_at(1, 0))
        c = FaultEvent(50, fault_at(2, 0))
        schedule = FaultSchedule([a, b, c])
        assert [e.cycle for e in schedule] == [10, 50, 50]
        # Same-cycle events keep construction order (a before c).
        assert schedule.events[1] is a
        assert schedule.events[2] is c

    def test_at_cycle_stamps_all_faults(self):
        faults = [fault_at(0, 0), fault_at(1, 1)]
        schedule = FaultSchedule.at_cycle(100, faults, duration=10)
        assert len(schedule) == 2
        assert all(e.cycle == 100 and e.duration == 10 for e in schedule)

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule([])
        assert len(FaultSchedule([])) == 0

    def test_equality_and_hash(self):
        one = FaultSchedule.at_cycle(5, [fault_at(0, 0)])
        two = FaultSchedule.at_cycle(5, [fault_at(0, 0)])
        assert one == two
        assert hash(one) == hash(two)
        assert one != FaultSchedule.at_cycle(6, [fault_at(0, 0)])


class TestSampledSchedules:
    def test_same_seed_same_schedule(self):
        kwargs = dict(count=5, seed=42, mtbf=500.0)
        one = FaultSchedule.sampled(nodes_4x4(), **kwargs)
        two = FaultSchedule.sampled(nodes_4x4(), **kwargs)
        assert one == two
        assert len(one) == 5

    def test_different_seeds_differ(self):
        one = FaultSchedule.sampled(nodes_4x4(), count=5, seed=1, mtbf=500.0)
        two = FaultSchedule.sampled(nodes_4x4(), count=5, seed=2, mtbf=500.0)
        assert one != two

    def test_arrivals_strictly_increase(self):
        schedule = FaultSchedule.sampled(nodes_4x4(), count=8, seed=3, mtbf=100.0)
        cycles = [e.cycle for e in schedule]
        assert cycles == sorted(cycles)
        assert all(b > a for a, b in zip(cycles, cycles[1:]))

    def test_horizon_truncates(self):
        schedule = FaultSchedule.sampled(
            nodes_8x8(), count=50, seed=4, mtbf=1000.0, horizon=2000
        )
        assert all(e.cycle <= 2000 for e in schedule)
        assert len(schedule) < 50

    def test_weibull_shape_changes_arrivals(self):
        expo = FaultSchedule.sampled(nodes_4x4(), count=5, seed=5, mtbf=500.0)
        weib = FaultSchedule.sampled(
            nodes_4x4(), count=5, seed=5, mtbf=500.0, weibull_shape=3.0
        )
        assert [e.cycle for e in expo] != [e.cycle for e in weib]

    def test_duration_makes_events_transient(self):
        schedule = FaultSchedule.sampled(
            nodes_4x4(), count=3, seed=6, mtbf=200.0, duration=50
        )
        assert all(e.transient and e.duration == 50 for e in schedule)

    def test_critical_population_only_critical_components(self):
        schedule = FaultSchedule.sampled(
            nodes_4x4(), count=10, seed=7, mtbf=100.0, critical=True
        )
        assert all(
            e.fault.component in CRITICAL_FAULT_COMPONENTS for e in schedule
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="count"):
            FaultSchedule.sampled(nodes_4x4(), count=-1, seed=1, mtbf=100.0)
        with pytest.raises(ValueError, match="mtbf"):
            FaultSchedule.sampled(nodes_4x4(), count=1, seed=1, mtbf=0.0)
        with pytest.raises(ValueError, match="weibull_shape"):
            FaultSchedule.sampled(
                nodes_4x4(), count=1, seed=1, mtbf=100.0, weibull_shape=-2.0
            )


class TestVcPositionBound:
    """Satellite: sampled VC positions follow the router configuration."""

    def test_default_config_keeps_historic_bound(self):
        assert module_vc_count() == 6
        assert module_vc_count(RouterConfig()) == 6

    def test_bound_scales_with_vcs_per_port(self):
        assert module_vc_count(RouterConfig(vcs_per_port=2)) == 4
        assert module_vc_count(RouterConfig(vcs_per_port=5)) == 10

    def test_sampled_positions_respect_router_config(self):
        config = RouterConfig(vcs_per_port=2)
        schedule = FaultSchedule.sampled(
            nodes_8x8(),
            count=40,
            seed=11,
            mtbf=10.0,
            critical=False,
            router_config=config,
        )
        buffer_faults = [
            e for e in schedule if e.fault.component is Component.BUFFER
        ]
        assert buffer_faults, "expected some buffer faults in a big sample"
        assert all(0 <= e.fault.vc_position < 4 for e in buffer_faults)


class TestSerialization:
    def test_payload_round_trip(self):
        schedule = FaultSchedule(
            [
                FaultEvent(10, fault_at(0, 0, Component.VA)),
                FaultEvent(
                    20,
                    ComponentFault(
                        NodeId(2, 3), Component.BUFFER, module="column",
                        vc_position=3,
                    ),
                    duration=75,
                ),
            ]
        )
        assert FaultSchedule.from_payload(schedule.to_payload()) == schedule

    def test_json_round_trip(self, tmp_path):
        schedule = FaultSchedule.sampled(
            nodes_4x4(), count=4, seed=9, mtbf=300.0, duration=20
        )
        path = tmp_path / "schedule.json"
        schedule.to_json(path)
        assert FaultSchedule.from_json(path) == schedule

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            FaultSchedule.from_payload([{"cycle": 5}])
