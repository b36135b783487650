"""Hardware-recycling recovery mechanisms (paper Section 4).

The mechanisms themselves are implemented inside the RoCo router and the
VC buffer (they are *behaviour*, not a separate subsystem):

* **Double routing** (RC failure, Figure 5) — heads departing a module
  with ``rc_faulty`` pay one extra cycle, standing in for the downstream
  neighbour performing current-node routing before look-ahead routing.
* **Virtual queuing** (buffer failure, Figure 6) — a ``faulty`` VC keeps
  only its bypass slot (depth 1) and each flit waits out a 2-cycle
  handshake, standing in for storage being off-loaded to the previous
  node while VA/SA still run here.
* **SA offloading** (SA failure, Figure 7) — a module with
  ``sa_degraded`` skips switch allocation on cycles its VA arbiters are
  busy with header processing and serves at most one port per cycle
  otherwise.
* **Module isolation** (VA / crossbar / MUX-DEMUX failure) — the
  containing module is disabled; the partner module keeps serving its
  dimension.

This module names each mechanism for the reports.
"""

from __future__ import annotations

from repro.faults.model import Component


def recovery_mechanism(component: Component) -> str:
    """Human-readable name of the RoCo recovery path for ``component``."""
    return {
        Component.RC: "double routing at downstream neighbours",
        Component.BUFFER: "virtual queuing over the bypass path",
        Component.SA: "arbitration offloaded to idle VA arbiters",
        Component.VA: "module isolation (graceful degradation)",
        Component.CROSSBAR: "module isolation (graceful degradation)",
        Component.MUX_DEMUX: "module isolation (graceful degradation)",
    }[component]
