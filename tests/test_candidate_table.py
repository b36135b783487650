"""A candidate VC table is one ``TABLE1`` entry, and both engines run it.

ROADMAP's XY candidate pins Table 1's floating ``dy`` VC (the Column
Module's second path set, fed by NORTH and SOUTH) to northbound traffic:
fed by SOUTH only.  One ``monkeypatch.setitem`` installs it, and no cache
is cleared: the object routers, the admission tables and the SoA layout
are memoised on the spec tuple's value, so they all read the candidate,
and undoing the swap gives Table 1's own objects back.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.simulator import run_simulation
from repro.core.soa.layout import build_layout
from repro.core.types import NORTH, SOUTH, XY, NodeId, Packet
from repro.harness.export import result_record
from repro.routers.admission import admission_table
from repro.routers.roco.path_set import COLUMN, TABLE1, VCSpec
from repro.routing.base import direction_class

#: Position of the floating ``dy`` in XY's row of Table 1.
FLOATING = 10

CONFIG = SimulationConfig(
    width=4, height=4, router="roco", routing="xy", injection_rate=0.2,
    warmup_packets=50, measure_packets=400, seed=3,
)


def northbound_pin() -> tuple[VCSpec, ...]:
    table = TABLE1[XY]
    assert table[FLOATING] == VCSpec(COLUMN, 1, "dy", (NORTH, SOUTH))
    return (*table[:FLOATING], VCSpec(COLUMN, 1, "dy", (SOUTH,)), *table[FLOATING + 1:])


def offered_to_a_southbound_head() -> tuple[set[int], set[int]]:
    """VC positions a head arriving on NORTH at (1, 1), bound due south,
    is offered by the object router and by the SoA layout."""
    net = Network(CONFIG)
    router = net.routers[NodeId(1, 1)]
    position = {id(vc): p for p, vc in enumerate(router.all_vcs())}
    packet = Packet(pid=0, src=NodeId(1, 0), dest=NodeId(1, 3), size=4, created_cycle=0)
    objects = {position[id(vc)] for vc, _route in router.vc_candidates(NORTH, packet)}
    net.teardown()
    layout = build_layout(replace(CONFIG, backend="soa"))
    cls = direction_class(0, 2)
    entry = layout.admission[(cls * 4 + int(NORTH)) * 2]
    return objects, {target for target, _route in entry}


def test_one_setitem_swaps_the_table_for_both_engines(monkeypatch):
    table1 = admission_table(TABLE1[XY], XY)
    objects, soa = offered_to_a_southbound_head()
    assert FLOATING in objects and objects == soa

    monkeypatch.setitem(TABLE1, XY, northbound_pin())
    objects, soa = offered_to_a_southbound_head()
    assert objects and FLOATING not in objects and objects == soa
    reference = result_record(run_simulation(CONFIG))
    assert result_record(run_simulation(replace(CONFIG, backend="soa"))) == reference

    monkeypatch.undo()
    assert admission_table(TABLE1[XY], XY) is table1
