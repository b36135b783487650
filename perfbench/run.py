"""perfbench: the repository's benchmark, end to end and layer by layer.

One run measures one workload::

    python3 perfbench/run.py --workload mesh8_lowload --seed 7 \\
        --seconds 12 --trace 0

and prints, as its last line, one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) declared in
``BENCHMARK.json``.  Without ``--workload`` every workload runs in its
own subprocess, both passes, and one document with every metric is
written (``--out``); ``--smoke`` is the seed-robustness self-check.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

#: Set-up is timed from here: imports are part of what a user waits for.
STARTED = time.perf_counter()

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import contain  # noqa: E402

if __name__ == "__main__" and not contain.contained():
    # The process the caller started only stands guard: it runs this
    # script again as its child and outlives everything that one starts.
    sys.exit(contain.run(HERE / "run.py", sys.argv[1:]))

from perfbench.hostspeed import HostSpeed  # noqa: E402

#: The run's probes; the first comes before the heavy imports, so that
#: set-up has one at either end.
HOST = HostSpeed()
HOST.probe()

from perfbench import workloads as wl  # noqa: E402
from perfbench.manifest import Manifest  # noqa: E402

DEFAULT_SEED = 7
SMOKE_SCALE = 0.05
SMOKE_SEEDS = (1, 2, 3, 4, 5)
#: Set-ups timed per full-size run: this process's and fresh ones.
SETUPS = 3
#: Everything the benchmark writes goes under here, inside the checkout.
WORK = ROOT / ".perfbench_work"


def fresh_dir(tag: str) -> Path:
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    return path


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def make(name: str, seed: int, scale: float, tag: str) -> wl.Workload:
    return wl.WORKLOADS[name](seed, scale, fresh_dir(f"{name}-{tag}"), host=HOST)


def setup_seconds() -> float:
    """Reference seconds from the first line of this file until now,
    the first probe's own time taken out."""
    ended = time.perf_counter()
    spent = ended - STARTED - HOST.walls[0]
    HOST.probe()
    return spent / HOST.slowness(STARTED, ended)


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------


def run_child(name: str, seed: int, extra: list[str]) -> dict:
    """One run of one workload in a fresh process; its result line."""
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            name,
            "--seed",
            str(seed),
            *extra,
        ],
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"{name} seed {seed} {' '.join(extra)} printed no result "
            f"(exit {done.returncode}):\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def run_rounds(workload: wl.Workload, seconds: float) -> list[wl.Sample]:
    """Whole rounds until the budget is spent; the last may overrun it."""
    samples: list[wl.Sample] = []
    started = time.perf_counter()
    rounds = 0
    while True:
        samples.extend(workload.round(rounds))
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    samples.extend(workload.finale())
    HOST.probe(3)
    return samples


def throughput(samples: list[wl.Sample], raw: bool = False) -> float:
    """Sum of work over sum of each unit's median time, in reference
    seconds: every wall is divided by the host's slowness around it
    (``raw`` leaves them host seconds)."""
    by_unit: dict[str, list[wl.Sample]] = {}
    for sample in samples:
        by_unit.setdefault(sample.unit, []).append(sample)
    work = sum(group[0].work for group in by_unit.values())
    seconds = sum(
        statistics.median(
            s.wall / (1.0 if raw else HOST.slowness(s.started, s.started + s.wall))
            for s in group
        )
        for group in by_unit.values()
    )
    return work / seconds


def check_pinned(workload: wl.Workload, args) -> None:
    """Default seed, full size: records must match the pinned digests."""
    if args.seed != DEFAULT_SEED or args.scale != 1.0:
        return
    path = HERE / "expected" / f"{workload.name}.json"
    if args.pin:
        path.write_text(json.dumps(workload.pinned(), indent=1, sort_keys=True) + "\n")
        return
    found = workload.pinned()
    expected = json.loads(path.read_text())
    # A label missing on either side is a mismatch too: were realisation
    # 0 screened or a unit renamed, nothing would be compared otherwise.
    workload.mismatches += sum(
        found.get(label) != expected.get(label) for label in found | expected
    )


def measure(args, manifest: Manifest) -> dict:
    """The untraced run: every end-to-end metric."""
    workload = make(args.workload, args.seed, args.scale, "run")
    try:
        workload.setup()
        setups = [setup_seconds()]
        samples = run_rounds(workload, args.seconds)
        workload.verify()
        check_pinned(workload, args)
    finally:
        workload.teardown()
    # Read before the set-up processes below become children too.
    peak = peak_rss_mb()
    if args.scale == 1.0:
        # Set-up again in fresh processes, after the timed work so that
        # they cannot disturb it: one set-up alone is a single sample.
        setups += [
            run_child(args.workload, args.seed, ["--setup-only"])["setup_s"]
            for _ in range(SETUPS - 1)
        ]
    values = {
        "setup_s": statistics.median(setups),
        "work_per_s": throughput(samples),
        "fast_path_per_s": throughput(
            [s for s in samples if s.path == workload.fast_path]
        ),
        "peak_rss_mb": peak,
    }
    print(
        f"{workload.name}: host slowness {HOST.median_slowness():.3f} over "
        f"{len(HOST.walls)} probes; work_per_s in host seconds "
        f"{throughput(samples, raw=True):.6g}",
        file=sys.stderr,
    )
    return result_line(workload, values, manifest.end_to_end, len(workload.ops))


def trace(args, manifest: Manifest) -> dict:
    """An untraced pass, then the same units with spans: per-layer metrics."""
    from perfbench.layers import Boundaries, layer_metrics
    from perfbench.tracing import Tracer

    plain = make(args.workload, args.seed, args.scale, "plain")
    try:
        plain.setup()
        untraced = plain.round(0) + plain.extras() + plain.finale()
        HOST.probe(3)
        plain.verify()
        check_pinned(plain, args)
    finally:
        plain.teardown()
    tracer = Tracer()
    spanned = make(args.workload, args.seed, args.scale, "traced")
    spanned.tracer = tracer
    # Same inputs, so the same records: the traced pass is checked
    # against the untraced one, which also shows tracing changes nothing.
    spanned.digests = plain.digests
    try:
        spanned.setup()
        boundaries = Boundaries(tracer, fine=spanned.fine_trace)
        try:
            traced = spanned.round(0) + spanned.extras() + spanned.finale()
        finally:
            tracer.uninstall()
    finally:
        spanned.teardown()
    plain.attempted += spanned.attempted
    plain.failed += spanned.failed
    plain.mismatches += spanned.mismatches
    values = layer_metrics(
        [m["name"] for m in manifest.per_layer],
        plain,
        untraced,
        traced,
        sum(wall for _, wall, _ in spanned.ops),
        tracer,
        boundaries,
    )
    WORK.mkdir(parents=True, exist_ok=True)
    spans = WORK / f"spans-{args.workload}-{args.seed}.json"
    spans.write_text(
        json.dumps(
            {"totals": tracer.totals(), "spans": tracer.spans()},
            separators=(",", ":"),
        )
    )
    return result_line(plain, values, manifest.per_layer, len(spanned.ops))


def result_line(workload, values: dict, declared: list[dict], samples: int) -> dict:
    return {
        "correct": workload.mismatches == 0 and workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
        # Beyond the driver's contract: kept only under --samples, for
        # the all-workloads table.
        "samples": samples,
    }


def single(args, manifest: Manifest) -> int:
    if args.setup_only:
        workload = make(args.workload, args.seed, args.scale, "setup")
        try:
            workload.setup()
            print(json.dumps({"setup_s": setup_seconds()}))
        finally:
            workload.teardown()
        return 0
    line = trace(args, manifest) if args.trace else measure(args, manifest)
    # Pools, tiles and servers are joined by their owners; nothing the
    # run started may outlive it.
    for child in multiprocessing.active_children():
        child.join()
    if not args.samples:
        del line["samples"]
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ----------------------------------------------------------------------
# Every workload
# ----------------------------------------------------------------------


def everything(args, manifest: Manifest) -> int:
    """Both passes of every workload, ``--runs`` times; one document."""
    document = {
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
        "claim": None,
    }
    ok = True
    for name in manifest.workload_names:
        entry = document["workloads"][name] = {
            "correct": True,
            "attempted": 0,
            "failed": 0,
            "metrics": {},
        }
        for _ in range(args.runs):
            for flag in ("0", "1"):
                line = run_child(
                    name,
                    args.seed,
                    ["--seconds", str(args.seconds), "--trace", flag, "--samples"]
                    + ["--pin"] * args.pin,
                )
                entry["correct"] &= line["correct"]
                entry["attempted"] += line["attempted"]
                entry["failed"] += line["failed"]
                for metric, reading in line["metrics"].items():
                    slot = entry["metrics"].setdefault(
                        metric,
                        {"unit": reading["unit"], "values": [], "samples": []},
                    )
                    slot["values"].append(reading["value"])
                    slot["samples"].append(line["samples"])
        ok &= entry["correct"]
        print(f"== {name}: correct={entry['correct']} "
              f"failed={entry['failed']}/{entry['attempted']}")
        for metric, slot in entry["metrics"].items():
            slot["median"] = statistics.median(slot["values"])
            print(
                f"{metric:46s} {slot['median']:>16.6g} {slot['unit']:<8s}"
                f" n={slot['samples'][0]}"
            )
    out = Path(args.out) if args.out else WORK / f"perfbench-{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def smoke(manifest: Manifest) -> int:
    """Every workload at 1/20 size on seeds 1-5: nothing fails or differs."""
    started = time.perf_counter()
    bad = []
    for seed in SMOKE_SEEDS:
        for name in manifest.workload_names:
            line = run_child(
                name,
                seed,
                ["--seconds", "0", "--scale", str(SMOKE_SCALE)],
            )
            if not line["correct"] or line["failed"]:
                bad.append((name, seed, line["failed"]))
    elapsed = time.perf_counter() - started
    print(f"smoke: {len(SMOKE_SEEDS) * len(manifest.workload_names)} runs "
          f"in {elapsed:.1f}s, {len(bad)} bad {bad}")
    return 1 if bad else 0


def main(argv=None) -> int:
    manifest = Manifest.load(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=manifest.workload_names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=manifest.run_seconds)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0
    )
    parser.add_argument("--out", help="all workloads: where to write the document")
    parser.add_argument(
        "--runs", type=int, default=1, help="all workloads: runs of each pass"
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--pin",
        action="store_true",
        help="rewrite perfbench/expected/ from this run (default seed only)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--samples", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke(manifest)
        if args.workload is None:
            return everything(args, manifest)
        return single(args, manifest)
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
