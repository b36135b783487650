"""Tests for the benchbed registry, runner and artifacts.

The contract under test (docs/benchmarking.md):

* discovery imports every ``benchmarks/bench_*.py`` and finds the
  registered benchmarks, idempotently;
* a quick-tier run of the same benchmark twice, serially or through a
  worker pool, writes byte-identical artifact files;
* a benchmark whose in-function shape assertion fails makes ``bench``
  exit non-zero and name it;
* the comparison engine is gone: its sub-subcommand and flags are
  argparse errors.

``tests/test_fidelity.py`` pins the registered suite itself to the
committed baseline.
"""

import json

import pytest

from repro.harness import benchbed
from repro.harness.benchbed import (
    REGISTRY,
    BenchbedError,
    BenchContext,
    BenchmarkRegistry,
    BenchSpec,
    Outcome,
    bench_main,
    benchmark,
    discover,
    quick_scale,
    run_benchmark,
    write_artifact,
)
from repro.harness.experiment import ExperimentScale

EXPECTED_BENCHMARKS = {
    "ablation_buffers",
    "ablation_lookahead",
    "ablation_mirror",
    "activity_core",
    "dynamic_faults",
    "ext_packet_size",
    "ext_permutations",
    "ext_saturation",
    "ext_scaling",
    "ext_torus",
    "fig10_transpose",
    "fig11_critical_faults",
    "fig12_noncritical_faults",
    "fig13_energy",
    "fig14_pef",
    "fig2_arbiters",
    "fig3_contention",
    "fig8_uniform",
    "fig9_selfsimilar",
    "table1_vc_config",
    "table2_matching",
}


def make_registry():
    registry = BenchmarkRegistry()

    @benchmark(
        "tiny_sim",
        headline="average_latency",
        unit="cycles",
        registry=registry,
    )
    def tiny_sim(ctx):
        from repro.core.config import SimulationConfig

        def config(rate):
            return SimulationConfig(
                width=4,
                height=4,
                router="roco",
                routing="xy",
                traffic="uniform",
                injection_rate=rate,
                warmup_packets=10,
                measure_packets=ctx.pick(quick=40, full=120),
                seed=11,
            )

        # One run in this process (scheduler counters), a grid through
        # the executor (the path --workers fans out).
        result = ctx.run(config(0.1))
        grid = ctx.executor.run_configs([config(0.05), config(0.2)])
        curve = [[r["injection_rate"], r["average_latency"]] for r in grid]
        return Outcome(result.average_latency, details={"curve": curve})

    return registry


# ---------------------------------------------------------------------------
# Registry and decorator


def test_register_rejects_duplicate_name_across_modules():
    registry = BenchmarkRegistry()
    registry.register(
        BenchSpec("dup", lambda ctx: 1.0, headline="x", module="mod_a")
    )
    # Same module re-registering is the idempotent re-import case.
    registry.register(
        BenchSpec("dup", lambda ctx: 1.0, headline="x", module="mod_a")
    )
    with pytest.raises(BenchbedError, match="dup"):
        registry.register(
            BenchSpec("dup", lambda ctx: 1.0, headline="x", module="mod_b")
        )


def test_select_filters_by_glob():
    registry = make_registry()

    @benchmark("other_thing", headline="x", registry=registry)
    def other(ctx):
        return 1.0

    assert [s.name for s in registry.select("tiny*")] == ["tiny_sim"]
    assert [s.name for s in registry.select(None)] == ["other_thing", "tiny_sim"]
    assert registry.select("nomatch*") == []


def test_outcome_coercion():
    assert Outcome.of(3).headline == 3.0
    assert Outcome.of(Outcome(2.0)).headline == 2.0
    with pytest.raises(BenchbedError, match="expected an"):
        Outcome.of("not a number")
    with pytest.raises(BenchbedError, match="expected an"):
        Outcome.of(True)


# ---------------------------------------------------------------------------
# Discovery


def test_discovery_finds_all_registered_benchmarks():
    registry = discover()
    assert {spec.name for spec in registry.select(None)} >= EXPECTED_BENCHMARKS


def test_discovery_is_idempotent():
    before = {spec.name for spec in discover().select(None)}
    after = {spec.name for spec in discover().select(None)}
    assert before == after


# ---------------------------------------------------------------------------
# Runner determinism and artifact schema


@pytest.mark.parametrize("workers", [None, 2])
def test_quick_run_is_deterministic_and_schema_valid(workers, tmp_path):
    registry = make_registry()
    (spec,) = registry.select("tiny_sim")
    first = run_benchmark(spec, BenchContext("quick"))
    second = run_benchmark(spec, BenchContext("quick", workers=workers))
    assert first == second
    assert first["schema_version"] == benchbed.SCHEMA_VERSION == 3
    assert set(first["headline"]) == {"metric", "unit", "value"}
    assert first["tier"] == "quick"
    assert first["seed"] == 11
    assert first["cycles"] > 0
    assert "duty_cycle" in first["scheduler"]

    path = write_artifact(first, tmp_path / "serial")
    assert path.name == "BENCH_tiny_sim.json"
    assert json.loads(path.read_text()) == first
    again = write_artifact(second, tmp_path / "again")
    assert again.read_bytes() == path.read_bytes()


def test_unknown_tier_rejected():
    with pytest.raises(BenchbedError, match="tier"):
        BenchContext("medium")


def test_quick_scale_preserves_mesh_and_trims_grids():
    full = ExperimentScale(
        name="full",
        width=8,
        height=8,
        warmup_packets=500,
        measure_packets=5000,
        seeds=(1, 2, 3),
        rates=(0.05, 0.10, 0.20, 0.30),
        max_cycles=40_000,
    )
    quick = quick_scale(full)
    assert (quick.width, quick.height) == (8, 8)
    assert quick.rates == (0.05, 0.30)
    assert quick.seeds == (1,)
    assert quick.measure_packets <= 250
    assert quick.warmup_packets <= 60


def test_context_pick_and_scale():
    ctx = BenchContext("quick")
    assert ctx.quick
    assert ctx.pick(quick=1, full=2) == 1
    full = BenchContext("full")
    assert full.pick(quick=1, full=2) == 2


# ---------------------------------------------------------------------------
# CLI


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "old", "new"],
        ["--quick", "--baseline", "benchmarks/baseline"],
        ["--quick", "--headline-threshold", "0.02"],
        ["--quick", "--report-only"],
    ],
)
def test_cli_comparison_surface_is_gone(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        bench_main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_run_quick_filter(tmp_path):
    out = tmp_path / "results"
    code = bench_main(
        ["--quick", "--filter", "table*", "--out", str(out)]
    )
    assert code == 0
    produced = sorted(p.name for p in out.glob("BENCH_*.json"))
    assert produced == [
        "BENCH_table1_vc_config.json",
        "BENCH_table2_matching.json",
    ]


def test_cli_broken_shape_fails_the_run_and_names_the_bench(
    tmp_path, capsys, monkeypatch
):
    # discover() registers into the module-global registry; give this
    # test its own so the two throwaway benches never reach the real one.
    monkeypatch.setattr(benchbed, "REGISTRY", BenchmarkRegistry())
    bench_dir = tmp_path / "benches"
    bench_dir.mkdir()
    (bench_dir / "bench_shapes.py").write_text(
        "from repro.harness.benchbed import benchmark\n"
        "\n"
        "@benchmark('shape_ok', headline='x')\n"
        "def ok(ctx):\n"
        "    return 1.0\n"
        "\n"
        "@benchmark('shape_broken', headline='x')\n"
        "def broken(ctx):\n"
        "    assert 1.0 < 0.5, 'roco must beat generic'\n"
        "    return 1.0\n"
    )
    out = tmp_path / "out"
    argv = ["--quick", "--filter", "shape_*", "--out", str(out)]
    argv += ["--bench-dir", str(bench_dir)]
    assert bench_main(argv) == 1
    err = capsys.readouterr().err
    assert "shape_broken" in err
    assert "roco must beat generic" in err
    # The healthy bench still ran; the broken one left no artifact.
    assert [p.name for p in out.glob("BENCH_*.json")] == ["BENCH_shape_ok.json"]


def test_cli_run_rejects_unmatched_filter(tmp_path):
    code = bench_main(
        ["--quick", "--filter", "zzz*", "--out", str(tmp_path / "x")]
    )
    assert code == 2


def test_cli_list_runs_without_artifacts(capsys, tmp_path):
    code = bench_main(["--list", "--out", str(tmp_path / "unused")])
    assert code == 0
    captured = capsys.readouterr().out
    for name in EXPECTED_BENCHMARKS:
        assert name in captured
    assert not (tmp_path / "unused").exists()


def test_global_registry_matches_discovery():
    discover()
    names = {spec.name for spec in REGISTRY.select(None)}
    assert EXPECTED_BENCHMARKS <= names
