"""The lone-VC allocate path == the general walk, on every single-VC state.

A router step that finds exactly one occupied VC takes
``BaseRouter._allocate_lone`` (one flat body for every architecture:
head staging, tally, readiness and commitment, with the router's
``_grant_lone`` hook for the grant), unless the network runs the full
sweep: that reference walks the general body with its own staging loop
(for RoCo, its own full-sweep body).  Each case puts the centre router of a
5x5 mesh in one single-VC state on twin networks, one active-scheduled
and one ``full_sweep=True``, runs ``allocate`` on both and compares all
the phase can touch: every arbiter's pointer, the SA winners, each VC's
worm, ownership and credit fields (the centre's and those of the router
its worm is bound for), the stall table and the activity and contention
counters.

The one difference the full sweep has by design — it keeps no hard-block
verdict (``BaseRouter._hard_blocked``) — is checked, then set aside.
"""

from __future__ import annotations

import inspect
import itertools

import pytest

from repro.arbiters import mirror
from repro.arbiters.round_robin import RoundRobinArbiter
from repro.core.config import RouterConfig, SimulationConfig
from repro.core.network import Network
from repro.core.types import CARDINALS, Direction, NodeId, Packet, make_packet_flits
from repro.routers import base, generic, path_sensitive
from repro.routers.base import EJECT
from repro.routers.roco import router as roco_router

CYCLE = 40
CENTRE = NodeId(2, 2)
LOCAL = Direction.LOCAL

#: What the one occupied VC holds: a head that has not run VA (``fresh``,
#: ``just`` arrived this cycle, or ``kept``: its hard-block verdict of
#: this fault epoch replays), an allocated ``head``, a ``body`` flit, or
#: (RoCo) a ``stray`` head routed LOCAL (the defensive eject).
FRESH, JUST, KEPT, HEAD, BODY, STRAY = "fresh", "just", "kept", "head", "body", "stray"
#: Where its worm is bound: the next router's PE (generic: this one's),
#: a downstream VC with a credit, one without, one whose credit matures
#: this cycle, or (heads before VA) admitting VCs all owned elsewhere.
EJECTS, CREDIT, DRY, MATURING, OWNED = "eject", "credit", "dry", "maturing", "owned"
#: What else holds: nothing, a ``hold`` penalty, a ``dead`` output port,
#: a ``dropped`` packet, and (RoCo) an ``rc``-faulty or ``sa``-degraded
#: module.
NONE, HOLD, DEAD, DROPPED, RC, SA = "none", "hold", "dead", "dropped", "rc", "sa"

ALL_KINDS = (FRESH, JUST, KEPT, HEAD, BODY, STRAY)
ALL_CONDITIONS = (NONE, HOLD, DEAD, DROPPED, RC, SA)

#: name -> (router, RouterConfig overrides, kinds, conditions).  The
#: ablations only change the states they are about: look-ahead routing
#: the unallocated heads, the sequential allocator the SA step.
VARIANTS = {
    "generic": ("generic", {}, ALL_KINDS, ALL_CONDITIONS),
    "path_sensitive": ("path_sensitive", {}, ALL_KINDS, ALL_CONDITIONS),
    "path_sensitive-no-lookahead": (
        "path_sensitive", {"lookahead_routing": False}, (FRESH, JUST), (NONE,)
    ),
    "roco": ("roco", {}, ALL_KINDS, ALL_CONDITIONS),
    "roco-sequential": (
        "roco", {"mirror_allocation": False}, (FRESH, HEAD, BODY), (NONE, SA)
    ),
    "roco-no-lookahead": (
        "roco", {"lookahead_routing": False}, (FRESH, JUST), (NONE, RC)
    ),
}


def arbiters_of(value):
    """Every round-robin arbiter reachable from a router's attributes."""
    if isinstance(value, RoundRobinArbiter):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from arbiters_of(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from arbiters_of(item)
    elif hasattr(value, "allocator"):  # a RoCo module
        yield from arbiters_of(vars(value.allocator))


def step(node: NodeId, direction: Direction, hops: int) -> NodeId:
    dx = {Direction.EAST: 1, Direction.WEST: -1}.get(direction, 0)
    dy = {Direction.SOUTH: 1, Direction.NORTH: -1}.get(direction, 0)
    return NodeId(node.x + hops * dx, node.y + hops * dy)


class Twin:
    """One network of a pair, the centre router and what a case touches."""

    def __init__(self, config: SimulationConfig, full_sweep: bool) -> None:
        self.net = Network(config, full_sweep=full_sweep)
        self.net.wire()
        self.net.cycle = CYCLE
        self.router = self.net.routers[CENTRE]
        self.routers = [self.router] + [
            port.downstream for port in self.router.outputs.values()
        ]
        # The modules appear twice in a RoCo router (``modules`` and
        # ``row`` / ``column``); each arbiter is listed once.
        self.arbiters = list(
            {id(a): a for a in arbiters_of(vars(self.router))}.values()
        )
        self.names = {
            id(vc): f"{router.node}:{i}"
            for router in self.routers
            for i, vc in enumerate(router.all_vcs())
        }

    def module_of(self, vc):
        modules = getattr(self.router, "modules", {})
        return next((m for m in modules.values() if vc in m.all_vcs()), None)

    def place(self, case: tuple, pid: int) -> Packet:
        """Reset the twin, then put ``case``'s state in its centre router."""
        vc_pos, od, kind, target, condition, pointer = case
        self.reset(pointer)
        return self.put(vc_pos, od, kind, target, condition, pid)

    def reset(self, pointer: int) -> None:
        """Empty every router a case touches; every arbiter at ``pointer``."""
        net, router = self.net, self.router
        net.has_faults = False
        for each in self.routers:
            each._stall_since.clear()
            each._sa_winners.clear()
            for port in each.outputs.values():
                port.dead = False
            for vc in each.all_vcs():
                vc.queue.clear()
                vc.out_dir = vc.out_vc = vc.active_pid = None
                vc.owner_pid = vc.verdict = None
                vc.hold_until = vc.expected = 0
                vc._available = vc.depth
                vc._releases.clear()
        for module in getattr(router, "modules", {}).values():
            module.rc_faulty = module.sa_degraded = False
        for arbiter in self.arbiters:
            arbiter._next = pointer % arbiter.num_requesters

    def put(self, vc_pos, od, kind, target, condition, pid: int) -> Packet | None:
        """Put one VC's state in the centre router; None when the state
        needs a downstream VC that an earlier ``put`` already holds, or
        would rewrite one an earlier ``put`` has given an owner."""
        net, router = self.net, self.router
        vc = router.all_vcs()[vc_pos]
        hops = 0 if od is LOCAL else 1 if target == EJECTS else 2
        packet = Packet(pid=pid, src=CENTRE, dest=step(CENTRE, od, hops), size=4,
                        created_cycle=0)
        head, body = make_packet_flits(packet)[:2]
        downstream = []
        if od is not LOCAL:
            port = router.outputs[od]
            downstream = [
                t for t, _ in port.downstream.vc_candidates(port.input_dir, packet)
            ]
        free = [t for t in downstream if t is EJECT or t.owner_pid is None]
        if kind in (HEAD, BODY) and downstream and not free:
            return None
        if target in (DRY, MATURING, OWNED):
            if any(t is not EJECT and t.owner_pid is not None for t in downstream):
                return None
            for t in downstream:
                if target == OWNED:
                    t.owner_pid = pid + 1
                else:
                    t._available = 0
                    if target == MATURING:
                        t._releases.append(CYCLE)

        flit = body if kind == BODY else head
        vc.push(flit)
        flit.arrival = CYCLE if kind == JUST else CYCLE - 1
        head.route = LOCAL if kind == STRAY else od
        if kind != FRESH:
            vc.active_pid = pid
        if kind in (HEAD, BODY):
            vc.out_dir = od
            vc.out_vc = free[0] if free else EJECT
            if vc.out_vc is not EJECT:
                vc.out_vc.owner_pid = pid
        elif kind == KEPT:
            vc.verdict = (net.fault_epoch, pid, 2)
            router._stall_since[id(vc)] = CYCLE - 5
            net.has_faults = True

        if condition == HOLD:
            vc.hold_until = CYCLE + 1
        elif condition == DEAD:
            router.outputs[od].dead = True
        elif condition == DROPPED:
            packet.dropped_cycle = CYCLE - 1
        elif condition == RC:
            self.module_of(vc).rc_faulty = True
        elif condition == SA:
            self.module_of(vc).sa_degraded = True
        if condition in (DEAD, DROPPED, RC, SA):
            net.has_faults = True
        return packet

    def snapshot(self, *ods: Direction) -> dict:
        """What ``allocate`` may have changed: the centre router, and the
        ones its worms are bound for (outputs ``ods``)."""
        name = self.names.get

        def target(t):
            return "EJECT" if t is EJECT else name(id(t))

        routers = [self.router]
        for od in dict.fromkeys(ods):
            if od is not LOCAL:
                routers.append(self.router.outputs[od].downstream)
        stats = self.net.stats
        return {
            "arbiters": [a._next for a in self.arbiters],
            "sa_winners": [
                (name(id(vc)), d, target(t)) for vc, d, t in self.router._sa_winners
            ],
            "vcs": {
                name(id(vc)): (
                    [(f.packet.pid, f.seq) for f in vc.queue],
                    vc.out_dir, target(vc.out_vc), vc.active_pid, vc.hold_until,
                    vc.verdict, vc.owner_pid, vc._available, list(vc._releases),
                    vc.expected,
                )
                for router in routers
                for vc in router.all_vcs()
            },
            "stall_since": {
                name(key): start for key, start in self.router._stall_since.items()
            },
            "activity": dict(vars(stats.activity)),
            "contention": dict(vars(stats.contention)),
            "delivered_flits": stats.delivered_flits,
        }


def twins(variant: str) -> tuple[Twin, Twin]:
    router, overrides, _, _ = VARIANTS[variant]
    config = SimulationConfig(
        width=5, height=5, router=router, routing="xy",
        router_config=RouterConfig.for_architecture(router, **overrides),
        warmup_packets=0, measure_packets=1,
    )
    return Twin(config, full_sweep=False), Twin(config, full_sweep=True)


def cases(variant: str, twin: Twin):
    """(VC position, output, kind, target, condition, pointer) tuples.

    Without a condition every pointer value of every arbiter is met (all
    arbiters at ``pointer`` mod their size); a condition takes one
    pointer value, rotating from case to case.
    """
    architecture, _, kinds, conditions = VARIANTS[variant]
    width = max(a.num_requesters for a in twin.arbiters)
    rotation = itertools.cycle(range(width))
    for vc_pos, vc in enumerate(twin.router.all_vcs()):
        if architecture == "roco":
            outputs = twin.module_of(vc).directions
        elif architecture == "generic":
            outputs = (*CARDINALS, LOCAL)
        else:
            outputs = CARDINALS
        for od in outputs:
            if od is vc.input_dir:
                continue  # no worm leaves by the port it came in on
            if od is LOCAL:
                targets = (EJECTS,)
            elif architecture == "generic":
                targets = (CREDIT, DRY, MATURING, OWNED)
            else:
                targets = (EJECTS, CREDIT, DRY, MATURING, OWNED)
            for kind in kinds:
                if kind == STRAY:
                    if architecture != "roco":
                        continue
                    held = (EJECTS,)
                elif kind == KEPT:
                    held = targets[:1]
                elif kind in (HEAD, BODY):
                    held = tuple(t for t in targets if t != OWNED)
                else:
                    held = targets
                for target, condition in itertools.product(held, conditions):
                    if condition in (RC, SA) and architecture != "roco":
                        continue
                    if condition == DEAD and od is LOCAL:
                        continue
                    pointers = range(width) if condition == NONE else (next(rotation),)
                    for pointer in pointers:
                        yield vc_pos, od, kind, target, condition, pointer


def check(variant: str) -> dict:
    """Run every case of ``variant``; count the cases, and those that
    granted, ran VA and kept a verdict."""
    lone, sweep = twins(variant)
    activity = lone.net.stats.activity
    tally = dict.fromkeys(("cases", "granted", "va", "kept"), 0)
    for pid, case in enumerate(cases(variant, lone)):
        od = case[1]
        packet = lone.place(case, 2 * pid)
        sweep.place(case, 2 * pid)
        vc = lone.router.all_vcs()[case[0]]
        verdict, va = vc.verdict, activity.va_requests
        lone.router.allocate(CYCLE)
        sweep.router.allocate(CYCLE)
        if vc.verdict != verdict:
            # A fresh hard-block verdict, kept on the active scheduler only.
            assert vc.verdict[:2] == (lone.net.fault_epoch, packet.pid), case
            vc.verdict = verdict
            tally["kept"] += 1
        got, want = lone.snapshot(od), sweep.snapshot(od)
        for field in got:
            assert got[field] == want[field], (variant, case, field)
        tally["cases"] += 1
        tally["granted"] += bool(got["sa_winners"])
        tally["va"] += activity.va_requests > va
    return tally


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_lone_path_equals_general_walk(variant):
    tally = check(variant)
    # Not vacuous: states grant, heads run VA, and (where faults are in
    # the battery) a dead output keeps verdicts.
    assert tally["granted"] > tally["cases"] // 10, tally
    assert tally["va"] > tally["cases"] // 10, tally
    if DEAD in VARIANTS[variant][3]:
        assert tally["kept"] > 0, tally


#: name -> (class, method, variant, [(old, new), ...]): one seeded fault,
#: source edits of the lone path (the shared ``_allocate_lone`` body, a
#: router's ``_grant_lone`` hook or the Mirror allocator's
#: ``grant_lone``) that the variant's battery must catch.
MUTANTS = {
    "generic: stage-1 grant left out": (
        generic.GenericRouter, "_grant_lone", "generic",
        [("self._sa_stage1[d].grant_lone(vc.index)", "pass")],
    ),
    "generic: stage-2 grant left out": (
        generic.GenericRouter, "_grant_lone", "generic",
        [("self._sa_stage2[out_dir].grant_lone(d)", "pass")],
    ),
    "generic: tally skipped when not ready": (
        base.BaseRouter, "_allocate_lone", "generic",
        [("if granted or self.idle_tally:", "if granted:")],
    ),
    "path_sensitive: local arbiter left out": (
        path_sensitive.PathSensitiveRouter, "_grant_lone", "path_sensitive",
        [("self._set_arbiters[QUADRANTS[vc.port]][slot].grant_lone(vc.index)",
          "pass")],
    ),
    "path_sensitive: output arbiter left out": (
        path_sensitive.PathSensitiveRouter, "_grant_lone", "path_sensitive",
        [("self._output_arbiters[out_dir].grant_lone(line)", "pass")],
    ),
    "path_sensitive: request counted without a crosspoint": (
        path_sensitive.PathSensitiveRouter, "_grant_lone", "path_sensitive",
        [("return False  # the decomposed crossbar has no such crosspoint",
          "self._activity.sa_requests += 1\n            return False")],
    ),
    "roco: lone grant skips the local arbiter": (
        mirror.MirrorAllocator, "grant_lone", "roco",
        [("self._local[port][slot].grant_lone(vc)", "pass")],
    ),
    "roco: lone grant skips the global arbiter": (
        mirror.MirrorAllocator, "grant_lone", "roco",
        [("self._global.grant_lone(slot)", "pass")],
    ),
    "roco: lone VC handed to the other module": (
        roco_router.RoCoRouter, "_grant_lone", "roco",
        [("self.row if out_dir is EAST or out_dir is WEST else self.column",
          "self.column if out_dir is EAST or out_dir is WEST else self.row")],
    ),
    "roco: SA borrow rule ignored": (
        roco_router.RoCoRouter, "_grant_lone", "roco",
        [("module.sa_degraded and fresh", "False and fresh")],
    ),
    "roco: tallied when not ready": (
        base.BaseRouter, "_allocate_lone", "roco",
        [("if granted or self.idle_tally:",
          "if granted or self.idle_tally or not ready:")],
    ),
}
for _variant in ("path_sensitive", "roco"):
    MUTANTS[f"{_variant}: RC cycle charged under look-ahead"] = (
        base.BaseRouter, "_allocate_lone", _variant,
        [("self._charges_rc and front.arrival", "front.arrival")],
    )
for _variant in ("generic", "path_sensitive", "roco"):
    MUTANTS[f"{_variant}: dropped front kept"] = (
        base.BaseRouter, "_allocate_lone", _variant,
        [("self._discard_dropped_front(vc, cycle)", "pass")],
    )


def seeded(cls, method: str, edits):
    """``cls.method`` recompiled with ``edits`` applied to its source.

    The source is kept at its indentation in the class (the edits are
    written so), under an ``if`` that compiles it at module level.
    """
    source = inspect.getsource(getattr(cls, method))
    for old, new in edits:
        assert source.count(old) == 1, f"{method} changed: re-seed this mutant"
        source = source.replace(old, new)
    namespace = dict(vars(inspect.getmodule(cls)))
    exec(compile("if True:\n" + source, "<mutant>", "exec"), namespace)
    return namespace[method]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_battery_catches_a_seeded_fault(name, monkeypatch):
    cls, method, variant, edits = MUTANTS[name]
    monkeypatch.setattr(cls, method, seeded(cls, method, edits))
    with pytest.raises(AssertionError):
        check(variant)
