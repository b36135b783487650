"""Fidelity pin: the paper's figures, at the quick tier, in tier-1.

Every registered benchmark asserts its figure's shape targets inside
its own function (RoCo under generic at every load, RoCo = 1.000 under
non-critical faults, exact Tables 1/2, ...) and reduces the figure to a
deterministic comparison payload.  This module runs them once per
session and holds each payload to the committed
``benchmarks/baseline/BENCH_<name>.json`` *exactly*, so a router, engine
or harness change that moves a paper result fails here — and a change
that is meant to move one shows up as a reviewed baseline diff
(``python -m repro bench --quick --out benchmarks/baseline``).
"""

from pathlib import Path

import pytest

from repro.harness.benchbed import (
    BenchContext,
    artifact_path,
    comparison_payload,
    discover,
    load_artifacts,
    run_benchmark,
)
from repro.harness.parallel import ResultCache

BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "baseline"

#: Registered benchmarks this pin leaves to the ``bench-smoke`` lane:
#: the two that time wall-clock pairs (their equivalence halves are
#: tests/test_activity_scheduler.py and tests/test_backend_conformance.py).
NOT_PINNED = ("activity_core", "backend_soa")

PINNED = [name for name in discover().names() if name not in NOT_PINNED]


@pytest.fixture(scope="session")
def shared_cache(tmp_path_factory):
    """One result cache for the whole pin: fig14 replays fig11/fig12's jobs."""
    return ResultCache(tmp_path_factory.mktemp("fidelity-cache"))


def test_baseline_covers_exactly_the_registered_suite():
    assert sorted(load_artifacts(BASELINE)) == discover().names()
    assert set(NOT_PINNED) <= set(discover().names())


@pytest.mark.parametrize("name", PINNED)
def test_quick_tier_matches_committed_baseline(name, shared_cache):
    context = BenchContext("quick")
    context.executor.cache = shared_cache
    # A broken shape target raises out of the benchmark function here.
    artifact = run_benchmark(discover().get(name), context)
    committed = load_artifacts(artifact_path(BASELINE, name))[name]
    assert comparison_payload(artifact) == comparison_payload(committed)
