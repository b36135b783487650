"""What a worker process starts from: both sides of ``worker_context``.

The fork-server side is proven without a clock: a worker forked from a
server that imported the package reads the *server's* pid in
``resilient.IMPORTED_IN_PID``; one that had to import the package
itself (a ``spawn`` child, or a fork of a server whose preload failed)
reads its own.  The last test is a source-level guard: one place in
``src/`` starts a process and one chooses the context.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import site
import subprocess
import sys
from multiprocessing import forkserver
from pathlib import Path

import pytest

from repro.harness import parallel, resilient
from repro.harness.parallel import ParallelExecutor, SimJob, worker_context
from repro.harness.resilient import ManagedWorkerSet

from .conftest import small_config
from .test_resilient import drain

ROOT = Path(__file__).resolve().parents[1]

needs_fork_server = pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork server",
)


def where(job: SimJob) -> tuple[int, int, int]:
    """Top-level ``job_fn``: who imported the worker module, who am I,
    who started me."""
    return resilient.IMPORTED_IN_PID, os.getpid(), os.getppid()


def census() -> list[list[tuple[int, int, int]]]:
    """:func:`where` from both workers of two successive sets.

    Two jobs submitted before the first pass go to the two idle
    workers, one each.
    """
    sets = []
    for _ in range(2):
        with ManagedWorkerSet(workers=2, job_fn=where) as workers:
            for _ in range(2):
                workers.submit(SimJob.of(small_config()))
            sets.append(sorted(drain(workers).values()))
    return sets


def assert_forked_from_one_preloaded_server(sets) -> None:
    workers = [worker for members in sets for worker in members]
    assert len({pid for _, pid, _ in workers}) == 4, "four distinct workers"
    servers = {ppid for _, _, ppid in workers}
    assert len(servers) == 1, "one server for both sets"
    for imported, pid, ppid in workers:
        assert imported == ppid != pid
    assert servers != {os.getpid()}


@needs_fork_server
def test_workers_fork_from_one_preloaded_server():
    found = dict(os.environ)
    assert worker_context().get_start_method() == "forkserver"
    assert_forked_from_one_preloaded_server(census())
    assert dict(os.environ) == found


@needs_fork_server
def test_preload_survives_a_hand_edited_sys_path(tmp_path):
    """The ``perfbench/run.py`` shape: no ``PYTHONPATH``, ``src/`` put
    on ``sys.path`` by the script.  A bare ``get_context("forkserver")``
    fails here up to CPython 3.12: its server cannot import ``repro``
    and every fork imports the package again."""
    script = tmp_path / "driver.py"
    script.write_text(
        "import json, os, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]\n"
        "from tests.test_worker_context import census\n"
        "if __name__ == '__main__':\n"
        "    found = dict(os.environ)\n"
        "    sets = census()\n"
        "    print(json.dumps([sets, dict(os.environ) == found]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    sets, environ_kept = json.loads(done.stdout.strip().splitlines()[-1])
    assert_forked_from_one_preloaded_server(sets)
    assert environ_kept


@needs_fork_server
def test_only_a_checkout_goes_on_the_servers_pythonpath(monkeypatch):
    """An installed package is found by the server itself, and its site
    directory may not be put before the standard library."""
    home = str(Path(parallel.__file__).resolve().parents[2])
    found = os.environ.get("PYTHONPATH")
    seen = []
    monkeypatch.setattr(
        forkserver,
        "ensure_running",
        lambda: seen.append(os.environ.get("PYTHONPATH")),
    )
    worker_context()
    monkeypatch.setattr(site, "getsitepackages", lambda: [home])
    worker_context()
    assert seen[0].split(os.pathsep)[0] == home
    assert seen[1] == found == os.environ.get("PYTHONPATH")


class TestSpawnWhereThereIsNoForkServer:
    """The other side of the choice, on this platform by pretending."""

    @pytest.fixture(autouse=True)
    def no_fork_server(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])

    def test_context_is_spawn_and_workers_import_for_themselves(self):
        assert worker_context().get_start_method() == "spawn"
        for members in census():
            for imported, pid, ppid in members:
                assert imported == pid and ppid == os.getpid()

    def test_pool_records_equal_serial(self):
        jobs = [SimJob.of(small_config(seed=seed)) for seed in (1, 2, 3, 4)]
        pooled = ParallelExecutor(workers=2).run_jobs(jobs)
        assert pooled == ParallelExecutor(workers=1).run_jobs(jobs)


def test_one_process_start_and_one_context_choice_in_the_source():
    """``ManagedWorkerSet._spawn_worker`` and ``worker_context``: a
    second supervisor or a second start-method choice shows up here."""
    hits = {needle: [] for needle in (".Process(", "get_context(")}
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text()
        for needle, found in hits.items():
            found += [str(path.relative_to(ROOT / "src"))] * text.count(needle)
    assert hits == {
        ".Process(": ["repro/harness/resilient.py"],
        "get_context(": ["repro/harness/parallel.py"],
    }
