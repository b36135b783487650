"""The benchmark's own checks (not part of tier-1's ``testpaths``).

    python -m pytest -q perfbench/test_perfbench_smoke.py

Every workload runs at 1/20 size, both passes, and its result line is
validated against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
sys.path.insert(0, str(ROOT))
from perfbench.manifest import EXTENDED  # noqa: E402

#: The driver's workloads and the ones only perfbench runs.
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]] + list(EXTENDED)


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=root,
        timeout=180,
    )


def test_manifest_is_well_formed():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in MANIFEST["end_to_end"]
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_matches_manifest(workload, trace):
    done = run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", trace, "--scale", "0.05",
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = MANIFEST["end_to_end" if trace == "0" else "per_layer"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reading = line["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"]
        assert math.isfinite(reading["value"])
        if trace == "0":
            assert reading["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_nothing_outlives_a_contained_run(tmp_path):
    inner = tmp_path / "inner.py"
    inner.write_text(
        "import subprocess, sys\n"
        "orphan = subprocess.Popen(['sleep', '60'], start_new_session=True)\n"
        "print(orphan.pid)\n"
        "sys.exit(3)\n"
    )
    outer = tmp_path / "outer.py"
    outer.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT)!r})\n"
        "from perfbench import contain\n"
        "contain.GRACE = 0.2\n"
        f"sys.exit(contain.run({str(inner)!r}, []))\n"
    )
    done = subprocess.run(
        [sys.executable, str(outer)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 3, done.stderr[-2000:]
    with pytest.raises(ProcessLookupError):
        os.kill(int(done.stdout), 0)


def test_slowness_is_read_off_the_probes_around_an_interval():
    sys.path.insert(0, str(ROOT))
    from perfbench.hostspeed import REFERENCE_S, HostSpeed

    host = HostSpeed()
    host.times = [0.0, 10.0, 20.0, 30.0]
    host.walls = [REFERENCE_S * factor for factor in (1, 2, 4, 8)]
    assert host.slowness(11.0, 19.0) == pytest.approx(3.0)  # probes at 10, 20
    assert host.slowness(11.0, 25.0) == pytest.approx(14 / 3)  # 10, 20, 30
    assert host.slowness(31.0, 35.0) == pytest.approx(8.0)  # none after it
    assert host.slowness(-5.0, -1.0) == pytest.approx(1.0)  # none before it
    host.probe()
    assert len(host.times) == len(host.walls) == 5 and host.walls[-1] > 0.0


def test_compare_verdicts():
    sys.path.insert(0, str(ROOT))
    from perfbench.compare import judge

    lower = ("lower", 0.1)
    higher = ("higher", 0.1)
    assert judge([1.0, 1.01, 0.99], [1.05, 1.04, 1.06], *lower) == "ok"
    assert judge([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], *lower) == "regressed"
    assert judge([1.0, 1.01, 0.99], [0.8, 0.81, 0.79], *higher) == "regressed"
    assert judge([1.0, 1.4, 0.7, 1.2], [1.1, 1.5, 0.8, 1.3], *lower) == "unresolved"
    assert judge([1.0, 1.4, 0.7, 1.2], [0.5, 0.6, 0.4, 0.55], *lower) == "ok"


def test_pinned_check_counts_missing_labels():
    sys.path.insert(0, str(ROOT))
    from perfbench import run as perfbench_run

    class Unpinned:
        name = "mesh8_lowload"
        mismatches = 0

        def pinned(self):
            return {"renamed/cell@0": "0" * 16}

    args = perfbench_run.argparse.Namespace(
        seed=perfbench_run.DEFAULT_SEED, scale=1.0, pin=False
    )
    workload = Unpinned()
    perfbench_run.check_pinned(workload, args)
    expected = json.loads((HERE / "expected" / "mesh8_lowload.json").read_text())
    assert workload.mismatches == len(expected) + 1


def test_only_the_object_engine_screens(tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT))
    from perfbench import run as perfbench_run  # noqa: F401  (puts src/ on the path)
    from perfbench import workloads as wl

    real = wl.MeshWorkload.run_cell

    def deadlocking(path, realisations):
        def run_cell(self, cell, realisation):
            if cell.path == path and realisation in realisations:
                raise wl.DeadlockError("stuck")
            return real(self, cell, realisation)

        return run_cell

    monkeypatch.setattr(wl.MeshWorkload, "run_cell", deadlocking("object", {0}))
    screened = wl.Mesh8LowLoad(3, 0.05, tmp_path / "a")
    assert {s.unit for s in screened.round(0)} == {c.unit for c in screened.cells(1)}
    assert (screened.screened, screened.failed, screened.cursor) == (1, 0, 2)
    assert not screened.pinned()

    monkeypatch.setattr(wl.MeshWorkload, "run_cell", deadlocking("soa", {0}))
    unequal = wl.Mesh8LowLoad(3, 0.05, tmp_path / "b")
    unequal.round(0)
    assert (unequal.screened, unequal.failed) == (0, 1)

    monkeypatch.setattr(wl.MeshWorkload, "run_cell", deadlocking("object", range(99)))
    with pytest.raises(wl.DeadlockError):
        wl.Mesh8LowLoad(3, 0.05, tmp_path / "c").round(0)
