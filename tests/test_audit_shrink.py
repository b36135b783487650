"""Tests for the delta-debugging shrinker and reproducer files."""

import json
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.audit import InvariantViolation, load_reproducer, save_reproducer, shrink
from repro.audit.shrink import reproducer_payload
from repro.core.config import SimulationConfig
from repro.core.simulator import DeadlockError, Simulator
from repro.core.types import NodeId
from repro.faults.injector import ComponentFault
from repro.faults.model import Component
from repro.faults.schedule import FaultEvent, FaultSchedule

from .conftest import small_config


def _credit_corruptor_run(config, schedule):
    """A RunFn whose failure comes from a fixture, not the simulator.

    The trigger is size-independent (first cycle >= 5 with any buffered
    flit loses a credit), so every shrunken candidate that still carries
    traffic past cycle 5 keeps failing.
    """
    sim = Simulator(replace(config, audit=True), schedule=schedule)
    state = {"done": False}

    def corrupt(cycle, stepped):
        if state["done"] or cycle < 5:
            return
        for router in sim.network.routers.values():
            for vc in router.all_vcs():
                if vc.queue:
                    vc._available -= 1
                    state["done"] = True
                    return

    sim.network.on_cycle_stepped = corrupt
    try:
        sim.run()
    except InvariantViolation as violation:
        return violation
    except DeadlockError:
        return None
    return None


def _schedule(cycles) -> FaultSchedule:
    return FaultSchedule(
        [
            FaultEvent(
                cycle=c,
                fault=ComponentFault(node=NodeId(1, 1), component=Component.SA),
            )
            for c in cycles
        ]
    )


class TestShrink:
    def test_rejects_non_failing_scenario(self):
        with pytest.raises(ValueError):
            shrink(small_config(), run_fn=lambda config, schedule: None)

    def test_shrinks_packets_and_cycles(self):
        config = small_config(
            measure_packets=400, warmup_packets=50, injection_rate=0.1
        )
        result = shrink(config, run_fn=_credit_corruptor_run)
        assert result.violation.invariant == "credit"
        assert result.total_packets <= 50
        assert result.config.warmup_packets == 0
        assert result.config.max_cycles <= result.violation.cycle + 1
        assert result.runs <= 128

    def test_ddmin_isolates_the_culprit_event(self):
        # Synthetic runner: the failure needs exactly the cycle-42 event.
        def run_fn(config, schedule):
            events = schedule.events if schedule is not None else ()
            if any(e.cycle == 42 for e in events):
                return InvariantViolation("credit", 50, "synthetic")
            return None

        schedule = _schedule([10, 20, 30, 42, 55, 60])
        result = shrink(small_config(), schedule, run_fn=run_fn)
        assert result.schedule is not None
        assert [e.cycle for e in result.schedule.events] == [42]
        assert result.config.measure_packets == 1
        assert result.config.max_cycles == 51

    def test_schedule_dropped_when_failure_is_fault_free(self):
        def run_fn(config, schedule):
            return InvariantViolation("credit", 9, "always fails")

        result = shrink(small_config(), _schedule([10, 20]), run_fn=run_fn)
        assert result.schedule is None


class TestReproducerFiles:
    def _violation(self) -> InvariantViolation:
        return InvariantViolation(
            "credit", 12, "sum off by one", node=NodeId(1, 2), pid=7
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "repro.json"
        config = small_config(measure_packets=25, warmup_packets=0)
        schedule = _schedule([8])
        save_reproducer(path, config, schedule, self._violation())
        loaded_config, loaded_schedule, recorded = load_reproducer(path)
        assert loaded_config.audit is True
        assert replace(loaded_config, audit=False) == config
        assert [e.cycle for e in loaded_schedule.events] == [8]
        assert recorded["invariant"] == "credit"
        assert recorded["cycle"] == 12
        assert recorded["node"] == [1, 2]
        assert recorded["pid"] == 7

    def test_round_trip_without_schedule(self, tmp_path):
        path = tmp_path / "repro.json"
        save_reproducer(path, small_config(), None, self._violation())
        _, loaded_schedule, _ = load_reproducer(path)
        assert loaded_schedule is None

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "not-a-reproducer"}))
        with pytest.raises(ValueError):
            load_reproducer(path)

    def test_config_payload_round_trip_keeps_router_config(self):
        config = small_config()
        payload = reproducer_payload(config, None, self._violation())
        assert SimulationConfig.from_payload(payload["config"]) == config


SMALL = ["--size", "4", "--rate", "0.1", "--packets", "60", "--warmup", "10"]


class TestAuditCli:
    def test_single_clean_run_exits_zero(self, capsys):
        code = main([*SMALL, "--audit"])
        assert code == 0
        assert "all invariants held" in capsys.readouterr().err

    def test_shrunken_reproducer_replays_to_exit_zero(self, tripwire, tmp_path, capsys):
        path = tmp_path / "repro.json"
        assert main([*SMALL, "--audit", "--shrink", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("INVARIANT VIOLATION: [tripwire] cycle ")
        assert f"reproducer saved to {path}: " in err
        config, schedule, recorded = load_reproducer(path)
        assert recorded["invariant"] == "tripwire" and schedule is None
        assert config.total_packets < 70 and config.warmup_packets == 0
        assert main(["--replay", str(path)]) == 0
        assert "INVARIANT VIOLATION: [tripwire] cycle " in capsys.readouterr().err

    def test_replay_of_clean_reproducer_exits_one(self, tmp_path, capsys):
        path = tmp_path / "repro.json"
        save_reproducer(
            path,
            small_config(measure_packets=40, warmup_packets=0),
            None,
            InvariantViolation("credit", 12, "synthetic"),
        )
        code = main(["--replay", str(path)])
        assert code == 1
        assert "did not reproduce" in capsys.readouterr().err
