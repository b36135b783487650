"""Struct-of-arrays fast backend (``SimulationConfig(backend="soa")``).

See docs/vectorized-core.md.  Public surface:

* :class:`~repro.core.soa.engine.SoASimulator` /
  :func:`~repro.core.soa.engine.run_soa_simulation` — the engine;
* :class:`~repro.core.soa.state.SoAState` with
  :func:`~repro.core.soa.state.encode_state` /
  :func:`~repro.core.soa.state.decode_state` — the object ↔ array
  state bridge, read only by the tests, whose object ↔ SoA oracle it is;
* :class:`~repro.core.soa.errors.BackendUnsupportedError` — raised for
  configurations outside the vectorized envelope.
"""

from repro.core.soa.errors import SOA_ROUTERS, BackendUnsupportedError, ensure_supported
from repro.core.soa.layout import EJECT_CODE, LOCAL, NONE_CODE, SoALayout, build_layout

__all__ = [
    "BackendUnsupportedError",
    "SOA_ROUTERS",
    "ensure_supported",
    "SoALayout",
    "build_layout",
    "NONE_CODE",
    "EJECT_CODE",
    "LOCAL",
    "SoASimulator",
    "run_soa_simulation",
    "SoAState",
    "encode_state",
    "decode_state",
    "states_equal",
    "state_diff",
    "run_cycles",
]


def __getattr__(name):
    # Lazy: the engine/state modules import the full router stack;
    # plain error/layout consumers skip that cost.
    if name in ("SoASimulator", "run_soa_simulation"):
        from repro.core.soa import engine

        return getattr(engine, name)
    if name in (
        "SoAState",
        "encode_state",
        "decode_state",
        "states_equal",
        "state_diff",
        "run_cycles",
    ):
        from repro.core.soa import state

        return getattr(state, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
