"""Layer-boundary call counts, pinned.

The object engine's layers meet at a handful of public callables:
``TrafficPattern.arrivals`` / ``destination``, ``routing.candidates``,
``RoundRobinArbiter.grant``, ``MirrorAllocator.allocate``,
``Source.inject`` and the router's per-flit phases ``traverse`` /
``deliver_due`` / ``quiescent``.  perfbench wraps these to
attribute time to layers and requires their call counts to repeat for a seed
(``perfbench/manifest.py::EXACT``), but perfbench is outside
``testpaths``.  This test pins the same counts — plus the grants
perfbench's tracer does not wrap (``RoundRobinArbiter.grant_mask`` /
``grant_lone``, ``MirrorAllocator.allocate_masks``) and the scheduler
counters — for one small seeded run per router, so an optimisation that
inlines across a boundary (or skips an arbiter call that advanced
rotating priority) fails here in seconds.

``tests/fixtures/layer_boundary_counts.json`` was generated at the
commit *before* the occupancy-first allocate rewrite (the three
``routers.*`` phase counts: before the per-flit phases were inlined).
The RoCo case's ``routing.candidates``, ``arbiters.round_robin.grant``
and ``arbiters.mirror.allocate`` were re-pinned when RoCo admission
became a read of the shared admission table (no routing call per VA
request) and a module's sole switch request became a lone grant (no
allocator run, no arbiter ``grant`` call); every scheduler, delivered
and dropped count stayed.  They moved once more when the draw loop
inlined the base Bernoulli ``arrivals`` (``traffic.arrivals`` reads 0
for the two Bernoulli cases; self-similar traffic keeps its calls) and
RoCo injection became a read of the shared injection table (the RoCo
case's ``routing.candidates`` keeps only the fault path's reroutes);
again no scheduler, delivered or dropped count moved.  The generic and
Path-Sensitive cases' ``arbiters.round_robin.grant`` then fell to 0:
their switch allocation grants from request bitmasks
(``RoundRobinArbiter.grant_mask``) and a lone request by
``grant_lone``, so ``grant`` over bool lines is left to the full-sweep
references and to RoCo's allocators; the rotating priority those calls
advance is held by ``tests/test_lone_allocate.py`` and
``tests/test_multi_allocate.py``, and again no scheduler, delivered or
dropped count moved.  ``routers.traverse`` then fell in all three cases
(RoCo 2,592 → 1,769, generic 2,789 → 2,267, Path-Sensitive 3,111 →
2,241): ``Network.step_front`` calls ``traverse`` only on a router that
holds SA winners, so the count is the steps with a crossbar passage,
not every executed step; no other count moved.  RoCo's switch
allocation then moved to request masks: ``MirrorAllocator.allocate_masks``
and ``RoundRobinArbiter.grant_mask`` / ``grant_lone`` are counted too
(the generic and Path-Sensitive cases' grants, which their ``grant``
count had stopped seeing), the RoCo case's ``allocate_masks`` reads the
206 that its ``arbiters.mirror.allocate`` read before, and
``arbiters.mirror.allocate`` and ``arbiters.round_robin.grant`` read 0
in every case (``FULL_SWEEP_ONLY``); no scheduler, delivered or dropped
count moved.  Regenerate it only when a change is meant to move a
boundary:

    PYTHONPATH=src python tests/test_layer_boundaries.py
"""

import json
from pathlib import Path

import pytest

from repro.arbiters.mirror import MirrorAllocator
from repro.arbiters.round_robin import RoundRobinArbiter
from repro.core.config import SimulationConfig
from repro.core.network import Network
from repro.core.simulator import Simulator, Source
from repro.core.types import NodeId
from repro.faults.schedule import FaultSchedule
from repro.routers import ROUTER_CLASSES
from repro.routing import make_routing
from repro.traffic import make_traffic

FIXTURE = Path(__file__).parent / "fixtures" / "layer_boundary_counts.json"

BASE = {
    "width": 4,
    "height": 4,
    "injection_rate": 0.15,
    "warmup_packets": 30,
    "measure_packets": 170,
    "seed": 11,
}

#: One case per router; between them they cover all three overrides of
#: ``arrivals``, XY and adaptive ``candidates``, and the runtime fault path.
CASES = {
    "roco-xy-uniform-transient": {
        "router": "roco",
        "routing": "xy",
        "traffic": "uniform",
    },
    "generic-adaptive-self_similar": {
        "router": "generic",
        "routing": "adaptive",
        "traffic": "self_similar",
    },
    "path_sensitive-xy-transpose": {
        "router": "path_sensitive",
        "routing": "xy",
        "traffic": "transpose",
    },
}


def _schedule(case: str) -> FaultSchedule | None:
    if not case.endswith("transient"):
        return None
    nodes = [NodeId(x, y) for y in range(4) for x in range(4)]
    return FaultSchedule.sampled(nodes, count=3, seed=11, mtbf=60, duration=120)


def _defining_classes(cls: type, attr: str) -> list[type]:
    """Classes in ``cls``'s MRO with a concrete ``attr`` of their own."""
    return [
        klass
        for klass in cls.__mro__
        if attr in klass.__dict__
        and not getattr(klass.__dict__[attr], "__isabstractmethod__", False)
    ]


def count_boundaries(case: str, patch) -> dict:
    """Run ``case`` with every boundary wrapped in a call counter.

    ``patch(owner, attr, value)`` installs a class attribute (pytest's
    ``monkeypatch.setattr`` in the test, which also restores it).
    """
    fields = CASES[case]
    config = SimulationConfig(**BASE, **fields)
    # The first network of a router shape builds its admission table,
    # asking the routing function, once per process: a throwaway one
    # here, so a case counts its run's calls whatever ran before it.
    Network(config).teardown()
    counts = dict.fromkeys(
        (
            "traffic.arrivals",
            "traffic.destination",
            "routing.candidates",
            "arbiters.round_robin.grant",
            "arbiters.round_robin.grant_mask",
            "arbiters.round_robin.grant_lone",
            "arbiters.mirror.allocate",
            "arbiters.mirror.allocate_masks",
            "core.source.inject",
            "routers.traverse",
            "routers.deliver_due",
            "routers.quiescent",
        ),
        0,
    )

    def counted(owner: type, attr: str, name: str) -> None:
        original = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        patch(owner, attr, wrapper)

    traffic_cls = type(make_traffic(fields["traffic"]))
    for attr in ("arrivals", "destination"):
        for owner in _defining_classes(traffic_cls, attr):
            counted(owner, attr, f"traffic.{attr}")
    for owner in _defining_classes(type(make_routing(config.routing)), "candidates"):
        counted(owner, "candidates", "routing.candidates")
    for attr in ("grant", "grant_mask", "grant_lone"):
        counted(RoundRobinArbiter, attr, f"arbiters.round_robin.{attr}")
    for attr in ("allocate", "allocate_masks"):
        counted(MirrorAllocator, attr, f"arbiters.mirror.{attr}")
    counted(Source, "inject", "core.source.inject")
    router_cls = ROUTER_CLASSES[fields["router"]]
    for attr in ("traverse", "deliver_due", "quiescent"):
        # The method the router resolves to: an override that called its
        # base would otherwise count twice.
        counted(_defining_classes(router_cls, attr)[0], attr, f"routers.{attr}")

    result = Simulator(config, schedule=_schedule(case)).run()
    scheduler = result.scheduler
    counts.update(
        {
            "scheduler.cycles": scheduler.cycles,
            "scheduler.router_steps": scheduler.router_steps,
            "scheduler.wakeups": scheduler.wakeups,
            "scheduler.sleeps": scheduler.sleeps,
            "delivered_packets": result.total_delivered,
            "dropped_packets": result.total_dropped,
        }
    )
    return counts


@pytest.mark.parametrize("case", sorted(CASES))
def test_boundary_call_counts_match_fixture(case, monkeypatch):
    expected = json.loads(FIXTURE.read_text())[case]
    assert count_boundaries(case, monkeypatch.setattr) == expected


#: The bool-line references that only the full sweep calls: pinned at 0
#: in every case, so an active-scheduler step that calls one fails.
FULL_SWEEP_ONLY = ("arbiters.round_robin.grant", "arbiters.mirror.allocate")


def test_fixture_exercises_every_boundary():
    """A pinned zero would let a boundary vanish unnoticed; the
    full-sweep references are pinned at zero on purpose."""
    pinned = json.loads(FIXTURE.read_text())
    assert set(pinned) == set(CASES)
    for name in next(iter(pinned.values())):
        if name == "dropped_packets":
            continue
        if name in FULL_SWEEP_ONLY:
            assert all(counts[name] == 0 for counts in pinned.values()), name
            continue
        assert any(counts[name] > 0 for counts in pinned.values()), name
    assert pinned["roco-xy-uniform-transient"]["dropped_packets"] > 0


if __name__ == "__main__":
    regenerated = {}
    for case_name in sorted(CASES):
        with pytest.MonkeyPatch.context() as patcher:
            regenerated[case_name] = count_boundaries(case_name, patcher.setattr)
    FIXTURE.write_text(json.dumps(regenerated, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
