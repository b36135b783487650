"""Supported-envelope policing for the struct-of-arrays backend.

The SoA backend (docs/vectorized-core.md) is a transliteration of the
object model's hot loop, bit-identical on the envelope it implements.
Anything outside that envelope must fail loudly *before* the run starts
— a silently-different fast path would poison every result built on it.
"""

from __future__ import annotations


class BackendUnsupportedError(RuntimeError):
    """A configuration/feature combination the requested backend lacks.

    Raised eagerly at dispatch time (``run_simulation`` /
    ``SoASimulator.__init__``) so callers can fall back to
    ``backend="object"`` instead of trusting a wrong answer.
    """

    def __init__(self, feature: str, detail: str = "") -> None:
        message = f"backend='soa' does not support {feature}"
        if detail:
            message += f" ({detail})"
        message += "; use backend='object'"
        super().__init__(message)
        self.feature = feature


#: Router architectures the SoA kernels implement.
SOA_ROUTERS = ("roco", "generic")


def ensure_supported(config, faults=None, schedule=None) -> None:
    """Raise :class:`BackendUnsupportedError` outside the SoA envelope.

    The envelope is: RoCo/generic routers on a fault-free mesh, any
    routing mode and traffic pattern, both schedulers, audit off.
    tests/test_engines_agree.py holds every job inside it to the object
    engine bit for bit; tests/test_backend_conformance.py pins these
    rejections.
    """
    if config.router not in SOA_ROUTERS:
        raise BackendUnsupportedError(
            f"router={config.router!r}", "only roco and generic are vectorized"
        )
    if config.topology != "mesh":
        raise BackendUnsupportedError(f"topology={config.topology!r}")
    if getattr(config, "shards", None) not in (None, (1, 1)):
        raise BackendUnsupportedError(
            f"shards={config.shards!r}",
            "tiles run the object engine (see docs/sharded-scaling.md)",
        )
    if config.audit:
        raise BackendUnsupportedError(
            "audit=True",
            "the audit engine walks live object state; decode an exported "
            "SoAState instead (see docs/vectorized-core.md)",
        )
    if faults:
        raise BackendUnsupportedError(
            "static fault injection", f"{len(list(faults))} fault(s) requested"
        )
    if schedule is not None and getattr(schedule, "events", ()):
        raise BackendUnsupportedError(
            "runtime fault schedules", f"{len(schedule.events)} event(s) scheduled"
        )
