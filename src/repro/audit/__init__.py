"""Runtime invariant auditing (see docs/auditing.md).

Opt-in per-cycle checking that the simulator's state machine never
leaks, duplicates, reorders or teleports a flit, never unbalances a
credit loop, and never emits an illegal crossbar matching — plus a
delta-debugging shrinker that turns any failed run into a minimal job,
saved and replayed as its JSON payload.
"""

from repro.audit.engine import AuditEngine, NetworkSnapshot
from repro.audit.invariants import (
    CreditConservationChecker,
    FlitConservationChecker,
    FlitLocationChecker,
    HandshakeChecker,
    InvariantChecker,
    InvariantViolation,
    MatchingChecker,
    WormOrderChecker,
    default_checkers,
)
from repro.audit.shrink import ShrinkResult, run_failure, shrink

__all__ = [
    "AuditEngine",
    "NetworkSnapshot",
    "InvariantChecker",
    "InvariantViolation",
    "FlitConservationChecker",
    "CreditConservationChecker",
    "WormOrderChecker",
    "HandshakeChecker",
    "MatchingChecker",
    "FlitLocationChecker",
    "default_checkers",
    "ShrinkResult",
    "run_failure",
    "shrink",
]
