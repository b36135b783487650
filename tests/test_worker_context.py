"""What a worker process starts from: both sides of ``worker_context``.

The fork-server side is proven without a clock: a worker forked from a
server that imported the package reads the *server's* pid in
``resilient.IMPORTED_IN_PID``; one that had to import the package
itself (a ``spawn`` child, or a fork of a server whose preload failed)
reads its own.  The entry point is counted the same way: a parent
script whose top level logs ``(__name__, pid)`` shows one
``__mp_main__`` line, written by the server, where every replaying
worker would write its own.  The last test is a source-level guard:
one place in ``src/`` starts a process and one chooses the context.
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


def where(job: SimJob, index: int, attempt: int) -> tuple[int, int, int]:
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


def in_worker(job: SimJob, index: int, attempt: int) -> dict:
    """Top-level ``job_fn``: what a worker holds that it did not fetch."""
    return {
        "transport": parallel._MAIN_TRANSPORT in os.environ,
        "broker": "repro.serve.broker" in sys.modules,
        "audit": "repro.audit.engine" in sys.modules,
        "forked": resilient.IMPORTED_IN_PID == os.getppid(),
    }


def crash_twice() -> list[list[str]]:
    """What two successive unsupervised 2-worker pools raise."""
    jobs = [SimJob.of(small_config(seed=seed)) for seed in (1, 2)]
    seen = []
    for _ in range(2):
        try:
            ParallelExecutor(workers=2).run_jobs(jobs)
            seen.append(["", "no error"])
        except Exception as exc:
            seen.append([type(exc).__name__, str(exc)])
    return seen


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


#: How every parent script below starts: no ``PYTHONPATH``, ``src/`` put
#: on ``sys.path`` by hand, and a top level that says who ran it.
PROLOGUE = (
    "import json, os, sys\n"
    f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]\n"
    "with open(os.path.join(os.path.dirname(__file__), 'ran.log'), 'a') as log:\n"
    "    print(__name__, os.getpid(), file=log)\n"
)
CENSUS = (
    "from tests.test_worker_context import census\n"
    "if __name__ == '__main__':\n"
    "    found = dict(os.environ)\n"
    "    sets = census()\n"
    "    print(json.dumps([os.getpid(), sets, dict(os.environ) == found]))\n"
)


def run_parent(source: Path, body: str, *args: str, cwd: Path | None = None):
    """Write ``PROLOGUE + body`` to ``source`` and run ``python *args``;
    returns the last stdout line decoded, who ran the top level as
    ``(name, pid)`` pairs, and stderr."""
    source.parent.mkdir(exist_ok=True)
    source.write_text(PROLOGUE + body)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *args],
        env=env,
        cwd=cwd or source.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    log = (source.parent / "ran.log").read_text().splitlines()
    ran = [(name, int(pid)) for name, pid in map(str.split, log)]
    return json.loads(done.stdout.strip().splitlines()[-1]), ran, done.stderr


def assert_entry_point_ran_once_in_the_server(parent, sets, ran) -> None:
    assert_forked_from_one_preloaded_server(sets)
    workers = [worker for members in sets for worker in members]
    (server,) = {ppid for _, _, ppid in workers}
    assert sorted(ran) == [("__main__", parent), ("__mp_main__", server)]
    assert server not in {pid for _, pid, _ in workers}


@needs_fork_server
def test_preload_survives_a_hand_edited_sys_path(tmp_path):
    """The ``perfbench/run.py`` shape: no ``PYTHONPATH``, ``src/`` put
    on ``sys.path`` by the script, started from another directory.  A
    bare ``get_context("forkserver")`` fails here twice up to CPython
    3.12: its server cannot import ``repro``, so every fork imports the
    package again, and it never learns the entry point, so every fork
    runs the script's top level again (four ``__mp_main__`` lines)."""
    script = tmp_path / "scripts" / "driver.py"
    (parent, sets, environ_kept), ran, _ = run_parent(
        script, CENSUS, str(script), "--flag", cwd=tmp_path
    )
    assert_entry_point_ran_once_in_the_server(parent, sets, ran)
    assert environ_kept


@needs_fork_server
def test_the_server_imports_a_script_as_a_child_would(tmp_path):
    """``sys.path`` and ``sys.argv`` are the parent's while the entry
    point runs in the server, as ``spawn.prepare`` makes them in a
    child: a script started from elsewhere finds its sibling modules,
    and module-level state read from the command line is the parent's."""
    script = tmp_path / "scripts" / "driver.py"
    script.parent.mkdir()
    (script.parent / "sibling.py").write_text("import sys\nARGV = sys.argv[1:]\n")
    body = (
        "import sibling\n"
        + CENSUS
        + "else:\n"
        + "    assert sibling.ARGV == ['--flag']\n"
    )
    (parent, sets, _), ran, stderr = run_parent(
        script, body, str(script), "--flag", cwd=tmp_path
    )
    assert_entry_point_ran_once_in_the_server(parent, sets, ran)
    assert "Traceback" not in stderr


@needs_fork_server
def test_a_module_main_is_imported_once_by_the_server(tmp_path):
    """``python -m mod``: the ``init_main_from_name`` branch."""
    (parent, sets, _), ran, _ = run_parent(
        tmp_path / "drivermod.py", CENSUS, "-m", "drivermod"
    )
    assert_entry_point_ran_once_in_the_server(parent, sets, ran)


@needs_fork_server
def test_a_package_main_is_imported_by_nobody(tmp_path):
    """``python -m pkg`` runs ``pkg/__main__.py``, whose top level is
    main-only code: neither the server nor a worker may run it."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (parent, sets, _), ran, _ = run_parent(
        tmp_path / "pkg" / "__main__.py", CENSUS, "-m", "pkg", cwd=tmp_path
    )
    assert_forked_from_one_preloaded_server(sets)
    assert ran == [("__main__", parent)]


def test_spawn_workers_still_replay_the_script(tmp_path):
    """Without a fork server nothing imports the entry point once: each
    ``spawn`` worker runs the script's top level itself, and a pool
    started that way still returns the serial records."""
    body = (
        "import multiprocessing\n"
        "from tests.conftest import small_config\n"
        "from tests.test_worker_context import (\n"
        "    ParallelExecutor, SimJob, census)\n"
        "if __name__ == '__main__':\n"
        "    multiprocessing.get_all_start_methods = lambda: ['spawn']\n"
        "    sets = census()\n"
        "    jobs = [SimJob.of(small_config(seed=seed)) for seed in (1, 2, 3, 4)]\n"
        "    pooled = ParallelExecutor(workers=2).run_jobs(jobs)\n"
        "    same = pooled == ParallelExecutor(workers=1).run_jobs(jobs)\n"
        "    print(json.dumps([os.getpid(), sets, same]))\n"
    )
    script = tmp_path / "driver.py"
    (parent, sets, same), ran, _ = run_parent(script, body, str(script))
    workers = [worker for members in sets for worker in members]
    for imported, pid, ppid in workers:
        assert imported == pid and ppid == parent
        assert ("__mp_main__", pid) in ran
    assert len(ran) == 1 + 4 + 2, "the parent, the census, the 2-worker pool"
    assert same


@needs_fork_server
def test_a_raising_entry_point_costs_speed_never_the_pool(tmp_path):
    """An entry point that cannot be imported as ``__mp_main__``: the
    server reports it once and lives, and every worker replays the
    script and dies of it, which is all that happened before."""
    body = (
        "if __name__ != '__main__':\n"
        "    raise RuntimeError(f'refused in {os.getpid()}')\n"
        "if __name__ == '__main__':\n"
        "    from multiprocessing import forkserver\n"
        "    from tests.test_worker_context import crash_twice\n"
        "    seen = crash_twice()\n"
        "    server = forkserver._forkserver._forkserver_pid\n"
        "    print(json.dumps([seen, server, os.waitpid(server, os.WNOHANG)]))\n"
    )
    script = tmp_path / "driver.py"
    (seen, server, waited), ran, stderr = run_parent(script, body, str(script))
    for error, message in seen:
        assert error == "WorkerCrashError" and "died (exitcode 1)" in message
    assert waited == [0, 0], "the server is still running"
    assert stderr.count(f"refused in {server}\n") == 1
    assert ran.count(("__mp_main__", server)) == 1
    assert len(ran) >= 1 + 1 + 2, "the parent, the server, a worker per pool"


@needs_fork_server
def test_preload_follows_what_the_parent_imported(tmp_path):
    """A parent that imported the job server before its first pool gets
    workers that hold it.  The import sits under the main check, so the
    entry point cannot be what brought it; a module the parent never
    imported stays lazy."""
    body = (
        "from tests.conftest import small_config\n"
        "from tests.test_resilient import drain\n"
        "from tests.test_worker_context import ManagedWorkerSet, SimJob, in_worker\n"
        "if __name__ == '__main__':\n"
        "    import repro.serve.broker\n"
        "    with ManagedWorkerSet(workers=2, job_fn=in_worker) as workers:\n"
        "        for _ in range(2):\n"
        "            workers.submit(SimJob.of(small_config()))\n"
        "        print(json.dumps(list(drain(workers).values())))\n"
    )
    script = tmp_path / "driver.py"
    held, _, _ = run_parent(script, body, str(script))
    expected = {"transport": False, "broker": True, "audit": False, "forked": True}
    assert held == [expected, expected]


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
