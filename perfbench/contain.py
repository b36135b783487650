"""Nothing the benchmark starts may outlive it.

The workloads start pools, tile processes, a job server and, underneath
them, ``multiprocessing``'s resource tracker, which only ends once the
process that started it has exited: a run cannot wait for that one from
the inside.  So ``run.py`` runs twice over: the process the caller
starts (this module) becomes a *child subreaper*, starts the benchmark
proper as its child, and does not return before every descendant,
orphans included, has ended and been waited for.  Stragglers are killed
after a grace period, or at once when the run itself was cut short.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Set in the environment of the benchmark proper and all it starts.
INNER = "PERFBENCH_CONTAINED"
#: Seconds descendants get to end by themselves after a complete run.
GRACE = 10.0
PR_SET_CHILD_SUBREAPER = 36


def contained() -> bool:
    return os.environ.get(INNER) == "1"


def children() -> list[int]:
    """Processes whose parent is this one; orphans are reparented here."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # ended while we looked
            continue
        # pid (comm) state ppid ...; comm may itself hold spaces and ')'.
        if stat.rpartition(")")[2].split()[1] == me:
            found.append(int(entry))
    return found


def reap(grace: float) -> None:
    """Wait until no descendant is left; kill what outlasts ``grace``."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for straggler in children():
                try:
                    os.kill(straggler, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            # Their own children arrive here next: come round again.
            deadline = time.monotonic() + 1.0
        time.sleep(0.005)


def _terminated(signum, frame) -> None:
    raise SystemExit(128 + signum)


def run(script: Path, argv: list[str]) -> int:
    """Run ``script`` contained; its exit code, once everything has ended."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")
    signal.signal(signal.SIGTERM, _terminated)
    grace = 0.0
    try:
        child = subprocess.Popen(
            [sys.executable, str(script), *argv],
            env={**os.environ, INNER: "1"},
        )
        code = child.wait()
        grace = GRACE
        return code
    finally:
        reap(grace)
