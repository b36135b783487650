"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import SUBCOMMANDS, build_parser, load_subcommand, main


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


class TestSubcommands:
    def test_table_names_the_known_subcommands(self):
        assert set(SUBCOMMANDS) == {"audit", "bench", "shards", "serve", "chaos"}

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_every_entry_imports_and_answers_help(self, name, capsys):
        assert callable(load_subcommand(name))
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--help"])
        assert excinfo.value.code == 0
        assert f"repro {name}" in capsys.readouterr().out

    def test_top_level_help_lists_the_table(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name, (_, summary) in SUBCOMMANDS.items():
            assert f"  {name:<8}{summary}" in out
