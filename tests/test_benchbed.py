"""Tests for the benchbed registry, runner, artifacts, and regression gate.

The contract under test (docs/benchmarking.md):

* discovery imports every ``benchmarks/bench_*.py`` and finds the
  registered benchmarks, idempotently;
* a quick-tier run of the same benchmark twice yields byte-identical
  artifacts;
* artifacts round-trip through the schema validator, and the baseline
  comparison exits non-zero on regressions (headline drift against the
  better direction, a violated floor/ceiling, missing benchmarks, a
  tier mismatch) while staying green on identical or improved runs;
* a benchmark whose in-function shape assertion fails makes ``bench``
  exit non-zero and name it.

``tests/test_fidelity.py`` pins the registered suite itself to the
committed baseline.
"""

import copy
import json

import pytest

from repro.harness import benchbed
from repro.harness.benchbed import (
    REGISTRY,
    BenchbedError,
    BenchContext,
    BenchmarkRegistry,
    BenchSpec,
    BenchThresholdError,
    Outcome,
    Threshold,
    bench_main,
    benchmark,
    compare_artifacts,
    comparison_payload,
    discover,
    load_artifacts,
    quick_scale,
    run_benchmark,
    validate_artifact,
    write_artifact,
)
from repro.harness.experiment import ExperimentScale

EXPECTED_BENCHMARKS = {
    "ablation_buffers",
    "ablation_lookahead",
    "ablation_mirror",
    "activity_core",
    "backend_soa",
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
    "sharded_scaling",
    "table1_vc_config",
    "table2_matching",
}


def make_registry():
    registry = BenchmarkRegistry()

    @benchmark(
        "tiny_sim",
        headline="average_latency",
        unit="cycles",
        direction="lower",
        registry=registry,
    )
    def tiny_sim(ctx):
        from repro.core.config import SimulationConfig

        packets = ctx.pick(quick=40, full=120)
        result = ctx.run(
            SimulationConfig(
                width=4,
                height=4,
                router="roco",
                routing="xy",
                traffic="uniform",
                injection_rate=0.1,
                warmup_packets=10,
                measure_packets=packets,
                seed=11,
            )
        )
        return Outcome(result.average_latency)

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


def test_register_rejects_bad_direction():
    registry = BenchmarkRegistry()
    with pytest.raises(BenchbedError, match="direction"):

        @benchmark("bad", headline="x", direction="sideways", registry=registry)
        def bad(ctx):
            return 1.0


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
# Thresholds (the bench_activity_core satellite contract)


def test_threshold_floor_violation_is_a_contextual_assertion_error():
    threshold = Threshold("speedup", floor=1.5)
    assert threshold.check(1.6) == 1.6
    with pytest.raises(AssertionError) as excinfo:
        threshold.check(1.2, context="rate 0.1: 1.20x")
    message = str(excinfo.value)
    assert "speedup" in message
    assert "floor" in message
    assert "rate 0.1: 1.20x" in message
    assert isinstance(excinfo.value, BenchThresholdError)


def test_threshold_ceiling_violation():
    with pytest.raises(BenchThresholdError, match="ceiling"):
        Threshold("duty", ceiling=0.7).check(0.9)


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


def test_quick_run_is_deterministic_and_schema_valid(tmp_path):
    registry = make_registry()
    (spec,) = registry.select("tiny_sim")
    first = run_benchmark(spec, BenchContext("quick"))
    second = run_benchmark(spec, BenchContext("quick"))
    assert first == second
    assert first["tier"] == "quick"
    assert first["seed"] == 11
    assert first["cycles"] > 0
    assert first["scheduler"] is not None
    assert "duty_cycle" in first["scheduler"]
    validate_artifact(first)

    path = write_artifact(first, tmp_path)
    assert path.name == "BENCH_tiny_sim.json"
    loaded = load_artifacts(tmp_path)
    assert comparison_payload(loaded["tiny_sim"]) == comparison_payload(first)


def test_unknown_tier_rejected():
    with pytest.raises(BenchbedError, match="tier"):
        BenchContext("medium")


def test_run_enforces_registered_bounds():
    registry = BenchmarkRegistry()

    @benchmark("bounded", headline="x", floor=1.0, registry=registry)
    def bounded(ctx):
        return Outcome(0.5, ceiling=ctx.pick(quick=0.4, full=None))

    (spec,) = registry.select("bounded")
    with pytest.raises(BenchThresholdError, match="ceiling"):
        run_benchmark(spec, BenchContext("quick"))
    with pytest.raises(BenchThresholdError, match="floor"):
        run_benchmark(spec, BenchContext("full"))


def test_validate_artifact_rejects_damage():
    registry = make_registry()
    (spec,) = registry.select("tiny_sim")
    artifact = run_benchmark(spec, BenchContext("quick"))

    missing = {k: v for k, v in artifact.items() if k != "headline"}
    with pytest.raises(ValueError, match="headline"):
        validate_artifact(missing)

    wrong_version = copy.deepcopy(artifact)
    wrong_version["schema_version"] = 999
    with pytest.raises(ValueError, match="schema version"):
        validate_artifact(wrong_version)

    bad_direction = copy.deepcopy(artifact)
    bad_direction["headline"]["direction"] = "sideways"
    with pytest.raises(ValueError, match="direction"):
        validate_artifact(bad_direction)

    # A version-1 artifact (the one that carried timings) is refused
    # whole rather than half-read.
    v1 = copy.deepcopy(artifact)
    v1["schema_version"] = 1
    with pytest.raises(ValueError, match="schema version 1"):
        validate_artifact(v1)


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
# Baseline comparison gate


def synthetic_artifact(
    name="synth",
    value=10.0,
    direction="lower",
    tier="quick",
    floor=None,
    ceiling=None,
):
    return {
        "schema_version": 2,
        "name": name,
        "tier": tier,
        "headline": {
            "metric": "latency",
            "unit": "cycles",
            "direction": direction,
            "value": value,
            "floor": floor,
            "ceiling": ceiling,
        },
        "seed": 7,
        "config": {"simulations": 1},
        "cycles": 1000,
        "details": {},
        "scheduler": None,
    }


def test_compare_identical_artifacts_passes():
    old = {"synth": synthetic_artifact()}
    report = compare_artifacts(old, copy.deepcopy(old))
    assert report.exit_code == 0
    assert report.deltas[0].status == "ok"


def test_compare_headline_drift_is_direction_aware():
    old = {"synth": synthetic_artifact(value=10.0, direction="lower")}
    worse = {"synth": synthetic_artifact(value=10.5, direction="lower")}
    better = {"synth": synthetic_artifact(value=9.5, direction="lower")}
    assert compare_artifacts(old, worse).exit_code == 1
    improved = compare_artifacts(old, better)
    assert improved.exit_code == 0
    assert improved.deltas[0].status == "improved"

    old_up = {"synth": synthetic_artifact(value=10.0, direction="higher")}
    worse_up = {"synth": synthetic_artifact(value=9.5, direction="higher")}
    assert compare_artifacts(old_up, worse_up).exit_code == 1


def test_compare_small_drift_within_threshold_passes():
    old = {"synth": synthetic_artifact(value=10.0)}
    new = {"synth": synthetic_artifact(value=10.1)}
    report = compare_artifacts(old, new, headline_threshold=0.02)
    assert report.exit_code == 0


def test_compare_missing_and_new_benchmarks():
    old = {
        "kept": synthetic_artifact(name="kept"),
        "gone": synthetic_artifact(name="gone"),
    }
    new = {
        "kept": synthetic_artifact(name="kept"),
        "added": synthetic_artifact(name="added"),
    }
    report = compare_artifacts(old, new)
    by_name = {d.name: d for d in report.deltas}
    assert by_name["gone"].status == "missing"
    assert by_name["gone"].failed
    assert by_name["added"].status == "new"
    assert not by_name["added"].failed
    assert report.exit_code == 1


def test_compare_tier_mismatch_is_incomparable():
    old = {"synth": synthetic_artifact(tier="full")}
    new = {"synth": synthetic_artifact(tier="quick")}
    report = compare_artifacts(old, new)
    assert report.deltas[0].status == "incomparable"
    assert report.exit_code == 1


def test_compare_absolute_floor_beats_relative_threshold():
    old = {"synth": synthetic_artifact(value=2.0, direction="higher", floor=1.5)}
    new = {"synth": synthetic_artifact(value=1.0, direction="higher", floor=1.5)}
    report = compare_artifacts(old, new)
    (delta,) = report.deltas
    assert delta.status == "regression"
    assert any("floor" in note for note in delta.notes)


# ---------------------------------------------------------------------------
# CLI


def test_cli_compare_exit_codes(tmp_path):
    old_dir = tmp_path / "old"
    new_dir = tmp_path / "new"
    old_dir.mkdir()
    new_dir.mkdir()
    write_artifact(synthetic_artifact(value=10.0), old_dir)
    write_artifact(synthetic_artifact(value=11.0), new_dir)

    assert bench_main(["compare", str(old_dir), str(old_dir)]) == 0
    assert bench_main(["compare", str(old_dir), str(new_dir)]) == 1
    assert (
        bench_main(
            ["compare", str(old_dir), str(new_dir), "--report-only"]
        )
        == 0
    )
    assert bench_main(["compare", str(tmp_path / "nope"), str(new_dir)]) == 2


def test_cli_run_quick_filter_and_baseline(tmp_path):
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
    for path in out.glob("BENCH_*.json"):
        validate_artifact(json.loads(path.read_text()))

    # Self-comparison against the artifacts just produced: clean pass,
    # and the baseline's other 19 benchmarks are not reported missing
    # because --filter restricts the comparison to what actually ran.
    code = bench_main(
        [
            "--quick",
            "--filter",
            "table*",
            "--out",
            str(tmp_path / "again"),
            "--baseline",
            str(out),
        ]
    )
    assert code == 0


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
    # --report-only softens the baseline diff, not a wrong shape.
    assert bench_main(argv + ["--baseline", str(out), "--report-only"]) == 1


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
