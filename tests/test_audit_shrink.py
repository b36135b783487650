"""Tests for the delta-debugging shrinker and the job files it saves."""

import json
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.audit import InvariantViolation, shrink
from repro.core.runloop import RUN_FAILURES, DrainTimeoutError
from repro.core.simulator import Simulator
from repro.core.types import NodeId
from repro.faults.injector import ComponentFault
from repro.faults.model import Component
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.harness.parallel import SimJob

from .conftest import small_config
from .test_engines_agree import agree
from .test_run_contract import BASE, DRAIN_CELLS


def _credit_corruptor_run(job):
    """A RunFn whose failure comes from a fixture, not the simulator.

    The trigger is size-independent (first cycle >= 5 with any buffered
    flit loses a credit), so every shrunken candidate that still carries
    traffic past cycle 5 keeps failing.
    """
    sim = Simulator(replace(job.config, audit=True), schedule=job.schedule)
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
    except RUN_FAILURES as failure:
        return failure
    return None


def _fault(x) -> ComponentFault:
    return ComponentFault(node=NodeId(x, 1), component=Component.SA)


def _schedule(cycles) -> FaultSchedule:
    return FaultSchedule([FaultEvent(cycle=c, fault=_fault(1)) for c in cycles])


class TestShrink:
    def test_rejects_non_failing_scenario(self):
        with pytest.raises(ValueError):
            shrink(SimJob.of(small_config()), run_fn=lambda job: None)

    def test_shrinks_packets_and_cycles(self):
        config = small_config(
            measure_packets=400, warmup_packets=50, injection_rate=0.1
        )
        result = shrink(SimJob.of(config), run_fn=_credit_corruptor_run)
        assert result.failure.invariant == "credit"
        assert result.job.config.total_packets <= 50
        assert result.job.config.warmup_packets == 0
        assert result.job.config.max_cycles <= result.failure.cycle + 1
        assert result.runs <= 128

    def test_ddmin_isolates_the_culprit_event(self):
        # Synthetic runner: the failure needs exactly the x=2 static fault
        # and the cycle-42 event, out of 4 faults and 6 events.
        def run_fn(job):
            events = job.schedule.events if job.schedule is not None else ()
            if _fault(2) in job.faults and any(e.cycle == 42 for e in events):
                return InvariantViolation("credit", 50, "synthetic")
            return None

        faults = [_fault(x) for x in range(4)]
        schedule = _schedule([10, 20, 30, 42, 55, 60])
        result = shrink(SimJob.of(small_config(), faults, schedule), run_fn=run_fn)
        assert result.job.faults == (_fault(2),)
        assert [e.cycle for e in result.job.schedule.events] == [42]
        assert result.job.config.measure_packets == 1
        assert result.job.config.max_cycles == 51

    def test_schedule_dropped_when_failure_is_fault_free(self):
        def run_fn(job):
            return InvariantViolation("credit", 9, "always fails")

        job = SimJob.of(small_config(), [_fault(0), _fault(2)], _schedule([10, 20]))
        result = shrink(job, run_fn=run_fn)
        assert result.job.faults == () and result.job.schedule is None

    @pytest.mark.parametrize(
        "engine", [{}, {"backend": "soa"}, {"shards": (2, 2)}],
        ids=["object", "soa", "tiles-2x2"],
    )
    def test_a_stall_shrinks_to_its_raise_cycle(self, engine):
        overrides, _ = DRAIN_CELLS["roco-tail-on-wire-s9"]
        config = replace(BASE, drain_timeout=0, **overrides, **engine)
        result = shrink(SimJob.of(config))
        assert isinstance(result.failure, DrainTimeoutError)
        shrunk = result.job.config
        assert shrunk.max_cycles == result.failure.cycle + 1
        assert shrunk.total_packets < config.total_packets
        assert (shrunk.backend, shrunk.shards) == (config.backend, config.shards)


SMALL = ["--size", "4", "--rate", "0.1", "--packets", "60", "--warmup", "10"]


class TestAuditCli:
    def test_single_clean_run_exits_zero(self, capsys):
        code = main([*SMALL, "--audit"])
        assert code == 0
        assert "all invariants held" in capsys.readouterr().err

    def test_a_shrunken_job_with_static_faults_replays_to_exit_one(
        self, tripwire, tmp_path, capsys
    ):
        path, again = tmp_path / "job.json", tmp_path / "again.json"
        assert main([*SMALL, "--audit", "--faults", "2", "--shrink", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("INVARIANT VIOLATION: [tripwire] cycle ")
        assert f"job saved to {path}: " in err
        job = SimJob.from_payload(json.loads(path.read_text()))
        assert job.config.audit and job.faults == () and job.schedule is None
        assert job.config.total_packets < 70 and job.config.warmup_packets == 0
        # The replay fails the same way, and may be shrunk again.
        assert main(["--replay", str(path), "--shrink", str(again)]) == 1
        assert "INVARIANT VIOLATION: [tripwire] cycle " in capsys.readouterr().err
        rerun = SimJob.from_payload(json.loads(again.read_text()))
        assert rerun.config.total_packets <= job.config.total_packets

    def test_replay_of_a_clean_job_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        job = SimJob.of(small_config(measure_packets=40, warmup_packets=0, audit=True))
        path.write_text(json.dumps(job.to_payload()))
        assert main(["--replay", str(path)]) == 0
        assert capsys.readouterr().err == "audit: all invariants held\n"

    def test_the_payload_a_failing_oracle_prints_replays(self, tmp_path, capsys):
        job = SimJob.of(small_config(measure_packets=40, warmup_packets=0))
        with pytest.raises(pytest.fail.Exception) as failed:
            agree(job, ["object"], {"object/sweep": {"record": "a wrong reference"}})
        text = str(failed.value)
        assert "python -m repro --replay FILE" in text
        path = tmp_path / "job.json"
        path.write_text(text.splitlines()[-1])
        assert main(["--replay", str(path)]) == 0
        assert "compl=1.000" in capsys.readouterr().out


class TestReproducerFiles:
    def test_wrong_schema_rejected(self, tmp_path, capsys):
        """A file that holds no job is one usage line and exit 2."""
        path = tmp_path / "job.json"
        for content in ("{not json", '["a", "list"]', '{"schema": "not-a-reproducer"}',
                        '{"config": {"width": 4}, "violation": {}}'):
            path.write_text(content)
            assert main(["--replay", str(path)]) == 2
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("repro: error: ")
