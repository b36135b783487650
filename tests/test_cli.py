"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import re
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import SUBCOMMANDS, build_parser, load_subcommand, main
from repro.core.config import SimulationConfig
from repro.core.types import NodeId
from repro.faults import Component, ComponentFault, FaultEvent, FaultSchedule
from repro.harness.parallel import SimJob, execute_job
from repro.serve import JobBroker, ServeClient, ServerThread


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.router == "roco"
        assert args.routing == "xy"
        assert args.rate == 0.2

    def test_router_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--router", "optical"])

    def test_fault_options(self):
        args = build_parser().parse_args(
            ["--faults", "3", "--fault-class", "non-critical"]
        )
        assert args.faults == 3
        assert args.fault_class == "non-critical"


class TestMain:
    def test_clean_run(self, capsys):
        code = main(
            [
                "--size", "4",
                "--packets", "120",
                "--warmup", "20",
                "--rate", "0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "roco" in out and "compl=1.000" in out

    def test_faulty_run(self, capsys):
        code = main(
            [
                "--size", "4",
                "--packets", "120",
                "--warmup", "20",
                "--rate", "0.1",
                "--router", "generic",
                "--faults", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault:" in out

    def test_an_audited_campaign_holds(self, capsys):
        argv = [*SMALL, "--audit", "--faults", "2", "--mtbf", "150"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.count("fault @ cycle ") == 2
        assert captured.err == "audit: all invariants held\n"

    def test_an_audited_sweep_holds(self, capsys):
        assert main([*SMALL, "--audit", "--rates", "0.1,0.2"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[3] for row in rows] == ["rate=0.10", "rate=0.20"]

    def test_every_router_runs(self, capsys):
        for router in ("generic", "path_sensitive", "roco"):
            assert (
                main(
                    [
                        "--router", router,
                        "--size", "4",
                        "--packets", "80",
                        "--warmup", "20",
                        "--rate", "0.08",
                    ]
                )
                == 0
            )


SMALL = ["--size", "4", "--packets", "80", "--warmup", "20", "--rate", "0.1"]


#: (router, extra flags) -> what each fault line must end with (Table 3).
FAULT_LINES = {
    "generic-static": ("generic", [], {"node off-line"}),
    "path_sensitive-campaign": ("path_sensitive", ["--mtbf", "60"], {"node off-line"}),
    "roco-critical": ("roco", [], {"module off-line"}),
    "roco-non-critical": ("roco", ["--fault-class", "non-critical", "--mtbf", "60"],
                          {"double routing", "SA offloaded onto the VA arbiters",
                           "virtual queuing"}),
}


@pytest.mark.parametrize("case", FAULT_LINES)
def test_a_fault_line_says_what_the_router_does_with_it(case, capsys):
    """Generic and Path-Sensitive take the node off-line; RoCo names the
    module it isolates, or the recycling that absorbs the fault."""
    router, extra, reactions = FAULT_LINES[case]
    assert main([*SMALL, "--router", router, "--faults", "3", *extra]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("fault")]
    assert len(lines) == 3
    for line in lines:
        where, _, reaction = line.partition(", heals at")[0].rpartition(": ")
        assert reaction in reactions, line
        assert where.endswith(" module)") is (router == "roco"), line


class TestBackendFlag:
    def test_soa_prints_what_the_object_engine_prints(self, capsys):
        point = ["--size", "16", "--packets", "200", "--warmup", "40", "--rate", "0.1"]
        assert main(point) == 0
        reference = capsys.readouterr().out
        assert main([*point, "--backend", "soa"]) == 0
        assert capsys.readouterr().out == reference
        assert "compl=1.000" in reference


def tiled_job(**fields) -> dict:
    """A job file's payload: a 4x4 mesh run on 2x2 tiles, plus ``fields``
    (config keys, or the job's ``faults`` / ``schedule``)."""
    job = {"config": {"width": 4, "height": 4, "shards": [2, 2]}}
    for key in ("faults", "schedule"):
        if key in fields:
            job[key] = fields.pop(key)
    job["config"].update(fields)
    return job


#: argv -> what the one line on stderr has to say.  A dict in argv is a
#: job file's payload: ``--replay`` is the way a job reaches the tiles.
OUTSIDE_THE_ENVELOPE = {
    "shards-router": (
        ["--replay", tiled_job(router="path_sensitive")],
        "sharded execution does not support router='path_sensitive'",
    ),
    "shards-faults": (
        ["--replay", tiled_job(faults=[
            ComponentFault(NodeId(1, 1), Component.SA).to_payload()
        ])],
        "sharded execution does not support static fault injection",
    ),
    "shards-planner": (
        ["--replay", tiled_job(shards=[4, 1])],
        "each tile must be at least 2 columns wide",
    ),
    "soa-faults": (
        [*SMALL, "--backend", "soa", "--faults", "2"],
        "backend='soa' does not support static fault injection",
    ),
    # Campaigns go through run_campaign, which builds the object engine
    # itself: it has to ask the chosen engine first.
    "soa-campaign": (
        [*SMALL, "--backend", "soa", "--faults", "2", "--mtbf", "400"],
        "backend='soa' does not support runtime fault schedules",
    ),
    "shards-campaign": (
        ["--replay", tiled_job(schedule=FaultSchedule([
            FaultEvent(30, ComponentFault(NodeId(1, 1), Component.SA))
        ]).to_payload())],
        "sharded execution does not support runtime fault schedules",
    ),
}


#: Flag values the job or the executor refuses when it is built from them.
BAD_FLAG_VALUES = {
    "size": (["--size", "1"], "mesh must be at least 2x2"),
    "rate": (["--rate", "2"], "injection rate must be within (0, 1]"),
    "packets": (["--packets", "0"], "measure_packets must be >= 1"),
    "torus-router": (
        ["--topology", "torus", "--router", "roco", "--size", "4"],
        "torus support requires router='generic'",
    ),
    "permutation-size": (
        ["--traffic", "shuffle", "--size", "3"],
        "shuffle traffic needs a power-of-two node count, got 9",
    ),
    "workers": (
        [*SMALL, "--workers", "-1", "--rates", "0.1,0.2"],
        "workers must be >= 0",
    ),
    "num-seeds": ([*SMALL, "--num-seeds", "0"], "--num-seeds must be >= 1"),
    "faults-negative": ([*SMALL, "--faults", "-1"], "count must be >= 0"),
    "campaign-flags": (
        [*SMALL, "--mtbf", "400"],
        "--mtbf needs --faults N to know how many arrivals to sample",
    ),
    "resume-nowhere": (
        [*SMALL, "--rates", "0.1,0.2", "--resume"],
        "--resume needs --journal FILE or --cache-dir DIR",
    ),
    # Supervision values: a deadline of zero or less would time out
    # every attempt, so the sweep is refused before any job runs.
    "job-timeout-negative": (
        [*SMALL, "--rates", "0.1,0.2", "--workers", "2", "--no-cache",
         "--job-timeout", "-5"],
        "job_timeout must be > 0 seconds, got -5.0",
    ),
    "job-timeout-zero": (
        [*SMALL, "--rates", "0.1,0.2", "--job-timeout", "0"],
        "job_timeout must be > 0 seconds, got 0.0",
    ),
    "max-retries": (
        [*SMALL, "--rates", "0.1,0.2", "--max-retries", "-1"],
        "max_retries must be >= 0, got -1",
    ),
    "cache-dir-file": (
        [*SMALL, "--rates", "0.1,0.2", "--cache-dir", "FILE"],
        "is not a usable directory: File exists",
    ),
    "shrink-sweep": (
        [*SMALL, "--shrink", "r.json", "--rates", "0.1,0.2"],
        "one scenario, not a sweep",
    ),
    # argparse's own error: the usage lines come first.
    "rates-empty": ([*SMALL, "--rates", ","], "argument --rates: empty rate list"),
    # One command runs a scenario: no subcommand, no scheduler selector.
    "audit-subcommand": (["audit", *SMALL], "unrecognized arguments: audit"),
    "shards-subcommand": (["shards", *SMALL], "unrecognized arguments: shards"),
    "full-sweep": ([*SMALL, "--full-sweep"], "unrecognized arguments: --full-sweep"),
    "shards": ([*SMALL, "--shards", "2x2"], "unrecognized arguments: --shards 2x2"),
    "interval": ([*SMALL, "--interval", "2"], "unrecognized arguments: --interval 2"),
}

NOT_A_TRACEBACK = {**OUTSIDE_THE_ENVELOPE, **BAD_FLAG_VALUES}


def job_file(directory: Path, payload: dict) -> str:
    saved = directory / "job.json"
    saved.write_text(json.dumps(payload))
    return str(saved)


@pytest.mark.parametrize("case", NOT_A_TRACEBACK)
def test_envelope_rejection_is_a_cli_error_not_a_traceback(case, tmp_path, capsys):
    argv, message = NOT_A_TRACEBACK[case]
    if "FILE" in argv:
        plain = tmp_path / "plain-file"
        plain.write_text("")
        argv = [str(plain) if arg == "FILE" else arg for arg in argv]
    argv = [job_file(tmp_path, arg) if isinstance(arg, dict) else arg for arg in argv]
    try:
        code = main(argv)  # any other exception out of here is the traceback
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    *usage, line = capsys.readouterr().err.splitlines()
    assert all(text.startswith(("usage: ", " ")) for text in usage)
    assert line.startswith("repro: error: ") and message in line


def test_a_sweep_strikes_its_static_faults_at_every_point(tmp_path, capsys):
    argv = [*SMALL, "--rates", "0.1,0.2", "--faults", "2"]
    assert main([*argv, "--cache-dir", str(tmp_path)]) == 0
    records = [
        json.loads(path.read_text())["record"] for path in tmp_path.glob("*.json")
    ]
    assert [record["num_faults"] for record in records] == [2, 2]


def test_a_replayed_job_strikes_its_static_faults_and_its_schedule(
    tmp_path, capsys
):
    config = SimulationConfig(
        width=4, height=4, router="generic", injection_rate=0.1,
        warmup_packets=20, measure_packets=200, seed=3,
    )
    late = FaultEvent(5_000, ComponentFault(NodeId(2, 2), Component.SA))
    job = SimJob.of(
        config,
        [ComponentFault(NodeId(1, 1), Component.VA)],
        schedule=FaultSchedule([late]),
    )
    saved = tmp_path / "job.json"
    saved.write_text(json.dumps(job.to_payload()))
    assert main(["--replay", str(saved)]) == 0
    summary = re.search(r"compl=(\S+)", capsys.readouterr().out)
    assert summary[1] == f"{execute_job(job)['completion_probability']:.3f}"


@pytest.mark.parametrize(
    "field",
    (
        {"flits_per_packet": 2.0},
        {"max_cycles": float("inf")},
        {"seed": True},
        {"injection_rate": True},
        {"audit": "yes"},
    ),
    ids=lambda field: next(iter(field)),
)
def test_a_replayed_job_with_a_non_integer_field_is_a_cli_error(
    field, tmp_path, capsys
):
    """A value of the wrong type, in an integer field or any other."""
    saved = tmp_path / "job.json"
    saved.write_text(json.dumps({"config": {"width": 4, "height": 4, **field}}))
    assert main(["--replay", str(saved)]) == 2
    line = capsys.readouterr().err.splitlines()[-1]
    assert line.startswith("repro: error: ") and next(iter(field)) in line


#: Single runs ``--shrink`` used to refuse.  It saves the job of any
#: failed one; a clean run exits 0 and saves nothing.
SHRINK_ANYWHERE = {
    "unaudited": SMALL,
    "static-faults": [*SMALL, "--faults", "2"],
    "soa": [*SMALL, "--backend", "soa"],
    "after-replay": ["--replay", "JOB"],
    "shards": ["--replay", tiled_job(measure_packets=80)],
}


@pytest.mark.parametrize("case", SHRINK_ANYWHERE)
def test_shrink_takes_any_single_run(case, tmp_path, capsys):
    saved = tmp_path / "shrunk.json"
    plain = {"config": {"width": 4, "height": 4, "measure_packets": 80}}
    argv = [
        job_file(tmp_path, plain if arg == "JOB" else arg)
        if arg == "JOB" or isinstance(arg, dict) else arg
        for arg in SHRINK_ANYWHERE[case]
    ]
    assert main([*argv, "--shrink", str(saved)]) == 0
    assert " cycles simulated" in capsys.readouterr().out
    assert not saved.exists()


#: A healthy 8x8 RoCo/XY mesh near saturation that stops draining at
#: cycle 2798 (the XY stall of tests/test_run_contract.py, seed 1).
STALL = [
    "--router", "roco", "--routing", "xy", "--rate", "0.30", "--size", "8",
    "--warmup", "500", "--packets", "3000", "--seed", "1",
]


def python_dash_m(argv: list[str]) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_python_dash_m_exits_with_what_main_returns():
    usage = python_dash_m(["--size", "1"])
    assert usage.returncode == 2
    assert usage.stderr == "repro: error: mesh must be at least 2x2\n"
    # A stall is the run's outcome: one line, no traceback.
    stall = python_dash_m(STALL)
    assert stall.returncode == 1
    assert stall.stderr.startswith(
        "repro: run did not complete: no progress for 2000 cycles at cycle 2798: "
    )
    assert stall.stderr.count("\n") == 1


def test_a_quiet_healthy_mesh_is_not_a_stall(capsys):
    # 18,498 cycles for 20 packets: one gap between two of them is longer
    # than the 2,000-cycle drain timeout, with nothing outstanding.
    argv = ["--router", "generic", "--size", "2", "--rate", "0.001"]
    assert main([*argv, "--packets", "20", "--warmup", "2", "--seed", "3"]) == 0
    assert "18498 cycles simulated" in capsys.readouterr().out


def test_an_error_inside_the_run_still_propagates(monkeypatch):
    # Only building the job from the flags is the user's to get wrong.
    def broken_run(config, **kwargs):
        raise ValueError("raised by the engine")

    monkeypatch.setattr("repro.__main__.run_simulation", broken_run)
    with pytest.raises(ValueError, match="raised by the engine"):
        main(SMALL)


class TestRunOutcome:
    """A stall or a violation out of a run is exit 1 and no traceback."""

    def test_an_unsupervised_sweep_that_stalls(self, capsys):
        assert main([*STALL, "--rates", "0.30"]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("repro: run did not complete: no progress for ")

    def test_a_violation_prints_its_text_and_the_packet_journey(
        self, tripwire, capsys
    ):
        assert main([*SMALL, "--audit"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        first, *journey = captured.err.splitlines()
        match = re.fullmatch(
            r"INVARIANT VIOLATION: \[tripwire\] cycle \d+: fixture tripped "
            r"\(packet (\d+)\)",
            first,
        )
        assert match is not None
        assert journey[0] == f"packet {match[1]}:" and len(journey) > 1

    def test_a_violation_ends_an_unsupervised_audited_sweep(self, tripwire, capsys):
        assert main([*SMALL, "--audit", "--rates", "0.1,0.2"]) == 1
        assert "INVARIANT VIOLATION: [tripwire] cycle " in capsys.readouterr().err

    def test_a_supervised_sweep_quarantines_a_violation_once(self, tripwire, capsys):
        argv = [*SMALL, "--audit", "--rates", "0.1", "--max-retries", "2"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(
            "        FAILED [fatal] InvariantViolation after 1 attempt(s): "
        )


class TestSubcommands:
    def test_table_names_the_known_subcommands(self):
        assert set(SUBCOMMANDS) == {"bench", "serve"}

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_every_entry_imports_and_answers_help(self, name, capsys):
        assert callable(load_subcommand(name))
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--help"])
        assert excinfo.value.code == 0
        assert f"repro {name}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["chaos", "--grid"], ["audit", "--grid"], ["serve", "--smoke"]]
    )
    def test_self_test_commands_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_top_level_help_lists_the_table(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name, (_, summary) in SUBCOMMANDS.items():
            assert f"  {name:<8}{summary}" in out


class TestServe:
    """``repro serve``: the server announces the port it bound, and a
    client command that cannot be run is one error line and exit 2."""

    def test_port_0_announces_the_bound_port(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env={**os.environ, "PYTHONPATH": src},
            stderr=subprocess.PIPE,
            text=True,
            # A suite started in the background of a script inherits an
            # ignored SIGINT, and so would the server.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            for line in server.stderr:
                if line.startswith("serve: listening on "):
                    break
            url = line.split()[-1]
            assert re.fullmatch(r"http://127\.0\.0\.1:[1-9]\d*", url)
            assert ServeClient(url).healthy()
            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=30) == 0
        finally:
            server.kill()
            server.wait()
            server.stderr.close()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--job-timeout", "-1"], "job_timeout must be > 0 seconds, got -1.0"),
            (["--max-retries", "-1"], "max_retries must be >= 0, got -1"),
            (["--cache-dir", "FILE"], "is not a usable directory: File exists"),
        ],
        ids=["job-timeout", "max-retries", "cache-dir-file"],
    )
    def test_a_bad_server_flag_value(self, flags, message, tmp_path, capsys):
        plain = tmp_path / "plain-file"
        plain.write_text("")
        flags = [str(plain) if flag == "FILE" else flag for flag in flags]
        assert main(["serve", "--port", "0", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: error: ") and message in err
        assert err.count("\n") == 1

    def test_no_server_at_the_url(self, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert main(["serve", "status", "--url", f"http://127.0.0.1:{port}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve status: error: ")
        assert err.count("\n") == 1

    def test_a_rejected_request(self, capsys):
        broker = JobBroker(workers=1, job_fn=lambda job, *_: {})
        with broker, ServerThread(broker) as url:
            argv = ["serve", "submit", "--url", url, '{"config": {"bogus": 1}}']
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "repro serve submit: error: bad config: unknown config field 'bogus'\n"
        )
