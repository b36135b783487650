"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import errno
import os
from pathlib import Path

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import SimulationResult, run_simulation


def small_config(**overrides) -> SimulationConfig:
    """A 4x4 mesh configuration sized for fast unit-level runs."""
    params = {
        "width": 4,
        "height": 4,
        "router": "roco",
        "routing": "xy",
        "traffic": "uniform",
        "injection_rate": 0.10,
        "warmup_packets": 30,
        "measure_packets": 150,
        "max_cycles": 20_000,
        "seed": 7,
    }
    params.update(overrides)
    return SimulationConfig(**params)


def run_small(**overrides) -> SimulationResult:
    return run_simulation(small_config(**overrides))


@pytest.fixture
def tripwire(monkeypatch):
    """Every audited run of the test also runs a checker that fails the
    first audited cycle >= 5 holding a buffered flit, naming its packet —
    so does a shrunken candidate that still carries traffic past cycle 5.
    (Imported here: a script importing this module must not preload the
    audit package, tests/test_worker_context.py.)"""
    from repro.audit import invariants

    class Tripwire(invariants.InvariantChecker):
        name = "tripwire"

        def check(self, engine, snapshot, cycle) -> None:
            if cycle >= 5 and snapshot.queue_flits:
                pid = min(snapshot.queue_flits)
                engine.fail(self.name, cycle, "fixture tripped", pid=pid)

    monkeypatch.setattr(
        "repro.audit.engine.default_checkers",
        lambda: [*invariants.default_checkers(), Tripwire()],
    )


@pytest.fixture(params=[errno.ENOSPC, errno.EACCES], ids=["ENOSPC", "EACCES"])
def refusing_disk(request, monkeypatch) -> int:
    """Every result-cache write fails as a full (``ENOSPC``) or
    unwritable (``EACCES``) disk fails it; yields the errno."""
    code = request.param
    write_text = Path.write_text

    def refuse(self, *args, **kwargs):
        if self.suffix == ".tmp":
            raise OSError(code, os.strerror(code), str(self))
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", refuse)
    return code


@pytest.fixture(scope="session")
def baseline_results() -> dict[str, SimulationResult]:
    """One small fault-free run per architecture, shared across tests."""
    return {
        router: run_small(router=router)
        for router in ("generic", "path_sensitive", "roco")
    }
