"""Fidelity pin: the paper's figures, at the quick tier, in tier-1.

Every registered benchmark asserts its figure's shape targets inside
its own function (RoCo under generic at every load, RoCo = 1.000 under
non-critical faults, exact Tables 1/2, ...) and reduces the figure to a
deterministic artifact.  This module runs them once per session and
holds each artifact — headline, config stamp, cycles, details and
scheduler counters, the whole file — to the committed
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
    discover,
    run_benchmark,
    write_artifact,
)
from repro.harness.parallel import ResultCache

BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "baseline"

REGISTERED = discover().names()


@pytest.fixture(scope="session")
def shared_cache(tmp_path_factory):
    """One result cache for the whole pin: fig14 replays fig11/fig12's jobs."""
    return ResultCache(tmp_path_factory.mktemp("fidelity-cache"))


def test_baseline_covers_exactly_the_registered_suite():
    assert set(BASELINE.iterdir()) == {
        artifact_path(BASELINE, name) for name in REGISTERED
    }


@pytest.mark.parametrize("name", REGISTERED)
def test_quick_tier_matches_committed_baseline(name, shared_cache, tmp_path):
    context = BenchContext("quick")
    context.executor.cache = shared_cache
    # A broken shape target raises out of the benchmark function here.
    artifact = run_benchmark(discover().get(name), context)
    # The file `bench --quick --out benchmarks/baseline` would write.
    written = write_artifact(artifact, tmp_path)
    assert written.read_text() == artifact_path(BASELINE, name).read_text()
