"""Compare two perfbench documents under the bounds of ``BENCHMARK.json``.

    python3 perfbench/compare.py OLD.json NEW.json

One row per workload and metric.  End-to-end metrics, and the per-layer
path metrics of ``manifest.PATH_BOUNDS`` where a workload has them, are
judged against their bound: ``ok``, ``regressed`` (NEW's median is worse
than OLD's by more than the bound) or ``unresolved`` (either side's
run-to-run spread is wider than the bound, and the runs of the two sides
overlap).  Exact per-layer metrics (counts and simulated statistics) are
``model-changed`` when any value differs.  The other per-layer metrics
have no bound and are listed with their change only.  The exit code is
non-zero when any row is ``regressed`` or ``model-changed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.manifest import EXACT, PATH_BOUNDS, Manifest  # noqa: E402


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median.

    Quartiles of fewer than four runs are extrapolations, so there the
    whole range stands in (0 for a single run).
    """
    median = statistics.median(values)
    if not median:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(median)


def worsening(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    if not old:
        return 0.0
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def judge(old: list[float], new: list[float], better: str, bound: float) -> str:
    worse = worsening(statistics.median(old), statistics.median(new), better)
    if max(spread(old), spread(new)) <= bound:
        return "regressed" if worse > bound else "ok"
    # Too noisy for the medians to decide: only disjoint runs still can.
    sign = 1 if better == "lower" else -1  # larger is worse
    old_cost = [sign * value for value in old]
    new_cost = [sign * value for value in new]
    if max(new_cost) < min(old_cost):
        return "ok"
    if min(new_cost) > max(old_cost) and worse > bound:
        return "regressed"
    return "unresolved"


def compare(old: dict, new: dict, manifest: Manifest) -> list[tuple]:
    """Rows of (workload, metric, old median, new median, change, verdict)."""
    rows = []
    for name in manifest.workload_names:
        before = old["workloads"].get(name, {}).get("metrics", {})
        after = new["workloads"].get(name, {}).get("metrics", {})
        for metric in manifest.end_to_end + manifest.per_layer:
            key = metric["name"]
            if key not in before or key not in after:
                continue
            old_values = before[key]["values"]
            new_values = after[key]["values"]
            old_median = statistics.median(old_values)
            new_median = statistics.median(new_values)
            bound = metric.get("bound", PATH_BOUNDS.get(key))
            if bound is not None and (old_median or new_median):
                verdict = judge(old_values, new_values, metric["better"], bound)
            elif key in EXACT:
                same = set(old_values) == set(new_values) and len(set(new_values)) == 1
                verdict = "ok" if same else "model-changed"
            else:
                verdict = "-"
            change = worsening(old_median, new_median, metric["better"])
            rows.append((name, key, old_median, new_median, change, verdict))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    manifest = Manifest.load(HERE.parent / "BENCHMARK.json")
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(old, new, manifest)
    for name, key, old_median, new_median, change, verdict in rows:
        if verdict == "-" and not (old_median or new_median):
            continue
        print(
            f"{name:16s} {key:44s} {old_median:>14.6g} {new_median:>14.6g} "
            f"{100 * change:>+8.1f}% worse  {verdict}"
        )
    counts = {
        verdict: sum(1 for row in rows if row[5] == verdict)
        for verdict in ("ok", "regressed", "unresolved", "model-changed")
    }
    print(" ".join(f"{verdict}={count}" for verdict, count in counts.items()))
    return 1 if counts["regressed"] or counts["model-changed"] else 0


if __name__ == "__main__":
    sys.exit(main())
