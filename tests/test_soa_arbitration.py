"""The SoA engine's packed arbitration blocks against the real arbiters.

``SoASimulator`` runs switch allocation inline on bitmasks: the RoCo
block packs the mirror allocator's request matrix into four V-wide
masks, the generic block packs the two-stage separable allocator into a
``ready`` / ``newly`` mask pair and 5-bit port fields.  Neither block is
callable on its own, so the tests here craft the state of one router of
a 3x3 mesh (the centre, which has all four neighbours), run that
router's allocate phase once, and compare **grants and arbiter
pointers** with the reference components on the same requests:

* RoCo — :class:`MirrorAllocator` with its ``RoundRobinArbiter``
  pointers set, and :func:`mirror_allocate`, the spelled-out int-state
  transliteration the packed block compresses;
* generic — a real :class:`GenericRouter`, rebuilt from the crafted
  state through the object <-> SoA state bridge, including the
  speculative / non-speculative split and the first-nominee output
  order.
"""

from __future__ import annotations

import inspect
import itertools
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arbiters.mirror import MirrorAllocator
from repro.arbiters.round_robin import RoundRobinArbiter
from repro.core.config import RouterConfig, SimulationConfig
from repro.core.soa import engine as engine_module
from repro.core.soa.engine import SoASimulator, _rr
from repro.core.soa.layout import EJECT_CODE, LOCAL, NONE_CODE
from repro.core.soa.state import decode_state, encode_state, state_diff

from .test_soa_layout_tables import admission

CENTRE = 4  # of the 3x3 mesh
CYCLE = 10


def mirror_allocate(state: list[int], requests) -> list[tuple[int, int, int]]:
    """MirrorAllocator.allocate on an int-state vector.

    ``state`` is ``[l00, l01, l10, l11, global]`` — the four local v:1
    arbiters (port x direction-slot) and the single global 2:1 arbiter.
    Returns ``(port, direction_slot, vc_index)`` grants.
    """
    p1_req, p2_req = requests
    l00 = _rr(state, 0, p1_req[0]) if True in p1_req[0] else None
    l01 = _rr(state, 1, p1_req[1]) if True in p1_req[1] else None
    l10 = _rr(state, 2, p2_req[0]) if True in p2_req[0] else None
    l11 = _rr(state, 3, p2_req[1]) if True in p2_req[1] else None
    p2_has = (l10 is not None, l11 is not None)
    if l00 is not None or l01 is not None:
        score0 = (2 if p2_has[1] else 1) if l00 is not None else -1
        score1 = (2 if p2_has[0] else 1) if l01 is not None else -1
        if score0 == score1:
            slot1 = _rr(state, 4, (True, True))
        else:
            slot1 = 0 if score0 > score1 else 1
            # Keep the global arbiter's state consistent with the choice.
            _rr(state, 4, (slot1 == 0, slot1 == 1))
        grants = [(0, slot1, l00 if slot1 == 0 else l01)]
        if slot1 == 0:
            if l11 is not None:
                grants.append((1, 1, l11))
        elif l10 is not None:
            grants.append((1, 0, l10))
        return grants
    if p2_has[0] or p2_has[1]:
        slot2 = _rr(state, 4, p2_has)
        return [(1, slot2, l10 if slot2 == 0 else l11)]
    return []


def crafted(router: str, vcs: int = 3) -> SoASimulator:
    """A fresh 3x3 SoA simulator whose arrays the tests poke directly."""
    config = SimulationConfig(
        width=3,
        height=3,
        router=router,
        routing="xy",
        router_config=RouterConfig.for_architecture(router, vcs_per_port=vcs),
        seed=1,
    )
    sim = SoASimulator(config)
    sim.net_cycle = CYCLE
    return sim


# ----------------------------------------------------------------------
# Round-robin primitive
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.integers(min_value=0, max_value=n - 1),
        )
    )
)
def test_rr_is_round_robin_grant(case):
    requests, pointer = case
    arbiter = RoundRobinArbiter(len(requests))
    arbiter._next = pointer
    state = [pointer]
    assert _rr(state, 0, requests) == arbiter.grant(requests)
    assert state[0] == arbiter._next


# ----------------------------------------------------------------------
# RoCo: packed mirror block == transliteration == MirrorAllocator
# ----------------------------------------------------------------------

V = 3  # RoCo modules are three VCs per port by construction


def check_mirror(sim: SoASimulator, mi: int, wants, pointers) -> None:
    """One module, one request assignment, one pointer state.

    ``wants[port * V + vc]`` is None (idle) or the crossbar direction
    slot that VC's front flit requests.
    """
    n = CENTRE
    base = mi * 2 * V
    slot_dirs = (sim.layout.mod_slot0_dir[mi], (sim.layout.mod_slot0_dir[mi] + 2) % 4)
    matrix = [[[False] * V for _ in range(2)] for _ in range(2)]
    mask = 0
    for i, slot in enumerate(wants):
        s = sim.bit_slot[n][base + i]
        if slot is None:
            sim.q[s] = []
            sim.out_vc[s] = sim.out_dir[s] = NONE_CODE
            continue
        # A body flit (no VA) bound for the next hop's early ejection:
        # ready without a credit to check or reserve.
        sim.q[s] = [1]
        sim.out_vc[s] = EJECT_CODE
        sim.out_dir[s] = slot_dirs[slot]
        mask |= 1 << (base + i)
        matrix[i // V][slot][i % V] = True
    sim.occ_mask[n] = mask
    sim.sa_win[n] = []
    sim.sa_routers = []
    sim.arb[n][mi] = list(pointers)
    if mask:
        sim._allocate(n, CYCLE)

    reference = MirrorAllocator(V)
    arbiters = [*reference._local[0], *reference._local[1], reference._global]
    for arbiter, pointer in zip(arbiters, pointers):
        arbiter._next = pointer
    expected = [tuple(g) for g in reference.allocate(matrix)]
    expected_pointers = [arbiter._next for arbiter in arbiters]
    spelled = list(pointers)
    assert mirror_allocate(spelled, matrix) == expected
    assert spelled == expected_pointers

    packed = []
    for s, od, t in sim.sa_win[n]:
        i = sim.bit_slot[n].index(s) - base
        assert t == EJECT_CODE
        packed.append((i // V, slot_dirs.index(od), i % V))
    assert packed == expected, (wants, pointers)
    assert sim.arb[n][mi] == expected_pointers, (wants, pointers)


@pytest.mark.parametrize("mi", (0, 1))
def test_mirror_block_exhaustive_requests(mi):
    """Every request assignment, under every uniform pointer state."""
    sim = crafted("roco")
    for wants in itertools.product((None, 0, 1), repeat=2 * V):
        for p in range(V):
            for g in (0, 1):
                check_mirror(sim, mi, wants, (p, p, p, p, g))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=1),
    st.lists(st.sampled_from((None, 0, 1)), min_size=2 * V, max_size=2 * V),
    st.tuples(*[st.integers(min_value=0, max_value=V - 1)] * 4),
    st.integers(min_value=0, max_value=1),
)
def test_mirror_block_mixed_pointers(mi, wants, local, g):
    check_mirror(crafted("roco"), mi, wants, (*local, g))


# ----------------------------------------------------------------------
# Generic: packed two-stage block == GenericRouter's SA
# ----------------------------------------------------------------------

#: What one input VC holds.  ``SETTLED`` worms won VA in an earlier
#: cycle (non-speculative SA requesters), ``BLOCKED`` ones likewise but
#: their downstream VC has no credit, ``FRESH`` heads run VA this cycle
#: and request the switch speculatively.
IDLE, SETTLED, BLOCKED, FRESH = range(4)


def check_generic(vcs: int, cells, pointers) -> None:
    """``cells[port * vcs + vc]`` is ``(kind, output direction)``."""
    sim = crafted("generic", vcs)
    n = CENTRE
    lay = sim.layout
    node = lay.nodes[n]
    claimed = [0] * 4  # downstream VCs handed out per cardinal output
    for i, (kind, od) in enumerate(cells):
        if kind == IDLE:
            continue
        s = sim.bit_slot[n][i]
        pid = sim._create_packet(n, node, 0)
        sim.p_injected[pid] = 0
        sim.p_dest[pid] = n if od == LOCAL else lay.nbr[n][od]
        sim.occ_mask[n] |= 1 << i
        sim.apid[s] = pid
        if kind == FRESH:
            head = pid * sim.F
            sim.q[s] = [head]
            sim.f_arrival[head] = CYCLE - 1
            continue
        body = pid * sim.F + 1
        sim.q[s] = [body]
        sim.f_arrival[body] = CYCLE - 1
        sim.out_dir[s] = od
        if od == LOCAL:
            sim.out_vc[s] = EJECT_CODE
            continue
        # More settled worms than downstream VCs share the last one:
        # not a reachable state, but SA reads only its credit count.
        facing = lay.gen_port_slots[lay.nbr[n][od]][(od + 2) % 4]
        t = facing[min(claimed[od], vcs - 1)]
        claimed[od] += 1
        sim.out_vc[s] = t
        sim.owner[t] = pid
        if kind == BLOCKED:
            sim.avail[t] = 0
    sim.arb[n] = list(pointers)
    sim.r_active[n] = True

    reference = decode_state(encode_state(sim, CYCLE), sim.config)
    if sim.occ_mask[n]:
        sim._allocate(n, CYCLE)
    reference.network._router_list[n].allocate(CYCLE)
    got = encode_state(sim, CYCLE)
    want = encode_state(reference, CYCLE)
    assert got.sa_winners[n] == want.sa_winners[n], (cells, pointers)
    assert got.arbiters[n] == want.arbiters[n], (cells, pointers)
    assert got == want, "\n".join(state_diff(got, want))
    result, expected = sim._stats(), reference.network.stats
    assert result.activity == expected.activity
    assert result.contention == expected.contention


def test_generic_stage1_exhaustive_one_port():
    """One input port, every settled/fresh mix, every pointer."""
    for port in (0, 4):
        for kinds in itertools.product((IDLE, SETTLED, BLOCKED, FRESH), repeat=3):
            for p in range(3):
                cells = [(IDLE, 0)] * 15
                for v, kind in enumerate(kinds):
                    cells[port * 3 + v] = (kind, 1)
                pointers = [0] * 10
                pointers[port] = p
                check_generic(3, cells, pointers)


def test_generic_stage2_exhaustive_one_output():
    """One VC per port, one output: every requester mix, every pointer.

    The output is LOCAL because ejection needs no downstream VC, so any
    number of fresh heads win VA and reach the switch speculatively.
    """
    kinds = ((IDLE, 0), (SETTLED, LOCAL), (FRESH, LOCAL))
    for cells in itertools.product(kinds, repeat=5):
        for p in range(5):
            pointers = [0] * 10
            pointers[5 + LOCAL] = p
            check_generic(1, cells, pointers)


def test_generic_stage2_output_order():
    """Two requested outputs: served in first-nominee (port) order."""
    kinds = ((IDLE, 0), (SETTLED, 1), (SETTLED, LOCAL), (FRESH, LOCAL))
    for k, cells in enumerate(itertools.product(kinds, repeat=5)):
        pointers = [0] * 10
        pointers[5 + 1] = k % 5
        pointers[5 + LOCAL] = k // 5 % 5
        check_generic(1, cells, pointers)


@st.composite
def generic_cases(draw):
    vcs = draw(st.integers(min_value=1, max_value=4))
    cell = st.tuples(
        st.sampled_from((IDLE, IDLE, SETTLED, BLOCKED, FRESH)),
        st.integers(min_value=0, max_value=4),
    )
    cells = draw(st.lists(cell, min_size=5 * vcs, max_size=5 * vcs))
    pointers = draw(
        st.tuples(
            *[st.integers(min_value=0, max_value=vcs - 1)] * 5,
            *[st.integers(min_value=0, max_value=4)] * 5,
        )
    )
    return vcs, cells, pointers


@settings(max_examples=300, deadline=None)
@given(generic_cases())
def test_generic_block_random(case):
    check_generic(*case)


# ----------------------------------------------------------------------
# RoCo: the lone-VC kernel == the general block on every single-VC state
# ----------------------------------------------------------------------

#: Centre of a 5x5 mesh: two hops of room in every direction, so a worm
#: can be bound for the neighbour (early ejection there) or beyond it.
CENTRE5 = 12

#: What the one occupied VC holds: a ``BODY`` flit or an already
#: allocated ``HEAD`` (no VA), a ``FRESH`` head whose VA runs now, or a
#: ``STRAY`` head routed LOCAL (the defensive eject).
BODY, HEAD, FRESH_HEAD, STRAY = "body", "head", "fresh", "stray"
#: Where it is bound: the neighbour's PE, a downstream VC with credit,
#: one without, one whose only credit matures this cycle — or, for a
#: fresh head, candidates that are all owned (VA fails).
TO_EJECT, TO_CREDIT, TO_DRY, TO_MATURING, TO_OWNED = (
    "eject",
    "credit",
    "dry",
    "maturing",
    "owned",
)


def lone_state(lookahead, i, slot, pointers, kind, target, just_arrived=False):
    """A 5x5 RoCo simulator whose centre router holds one flit, in the
    VC at walk position ``i``, requesting crossbar direction ``slot``."""
    config = SimulationConfig(
        width=5,
        height=5,
        router="roco",
        routing="xy",
        router_config=RouterConfig.for_architecture(
            "roco", lookahead_routing=lookahead
        ),
        seed=1,
    )
    sim = SoASimulator(config)
    sim.net_cycle = CYCLE
    lay = sim.layout
    n = CENTRE5
    mi = i // (2 * V)
    od = (lay.mod_slot0_dir[mi] + 2 * slot) % 4
    m = lay.nbr[n][od]
    pid = sim._create_packet(n, lay.nodes[n], 0)
    sim.p_injected[pid] = 0
    sim.p_dest[pid] = m if target == TO_EJECT else lay.nbr[m][od]
    candidates = [t for t, _ in admission(lay, m, (od + 2) % 4, sim.p_dest[pid], 0)]
    if target != TO_EJECT:
        for t in candidates:
            if target == TO_OWNED:
                sim.owner[t] = pid + 1
            elif target != TO_CREDIT:
                sim.avail[t] = 0
                if target == TO_MATURING:
                    sim.rel[t] = [CYCLE]
    s = sim.bit_slot[n][i]
    head = pid * sim.F
    sim.occ_mask[n] = 1 << i
    sim.r_active[n] = True
    sim.arb[n][mi] = list(pointers)
    if kind in (FRESH_HEAD, STRAY):
        sim.q[s] = [head]
        sim.f_route[head] = od if kind == FRESH_HEAD else LOCAL
        sim.f_arrival[head] = CYCLE if just_arrived else CYCLE - 1
        return sim
    fid = head if kind == HEAD else head + 1
    sim.q[s] = [fid]
    sim.f_arrival[fid] = CYCLE - 1
    if kind == BODY:
        sim.apid[s] = pid
    sim.out_dir[s] = od
    if target == TO_EJECT:
        sim.out_vc[s] = EJECT_CODE
    else:
        sim.out_vc[s] = candidates[0]
        sim.owner[candidates[0]] = pid
    return sim


def run_state(sim: SoASimulator) -> dict:
    """Every per-run field of ``sim``, raw: its arrays, wake buckets,
    arbiter pointers and counters.  A superset of what ``encode_state``
    canonicalises (which folds matured credits and masks stale fields)
    and of the counters ``_stats()`` flushes; the layout, rng and
    traffic pattern are shared structure, not state."""
    return {
        name: value
        for name, value in vars(sim).items()
        if value is None or isinstance(value, (int, list, tuple, dict, set))
    }


def assert_twins_equal(fast: SoASimulator, general: SoASimulator, case) -> None:
    assert fast.sa_win == general.sa_win, case
    assert fast.arb == general.arb, case
    got, want = run_state(fast), run_state(general)
    assert got.keys() == want.keys()
    for name, value in got.items():
        assert value == want[name], (name, case)


def check_lone(case, lone=SoASimulator._allocate_roco_lone) -> SoASimulator:
    """Run ``lone`` and the general block on two copies of one state."""
    fast, general = lone_state(*case), lone_state(*case)
    lone(fast, CENTRE5, CYCLE)
    general._allocate_roco(CENTRE5, CYCLE)
    assert_twins_equal(fast, general, case)
    return fast


def lone_cases():
    """Every single-VC state under uniform local pointers."""
    for lookahead, i, slot in itertools.product((True, False), range(4 * V), (0, 1)):
        for p, g in itertools.product(range(V), (0, 1)):
            pointers = (p, p, p, p, g)
            for kind, target in itertools.product(
                (BODY, HEAD), (TO_EJECT, TO_CREDIT, TO_DRY, TO_MATURING)
            ):
                yield lookahead, i, slot, pointers, kind, target
            for target, just in itertools.product(
                (TO_EJECT, TO_CREDIT, TO_DRY, TO_MATURING, TO_OWNED), (False, True)
            ):
                yield lookahead, i, slot, pointers, FRESH_HEAD, target, just
            yield lookahead, i, slot, pointers, STRAY, TO_EJECT


def test_lone_kernel_equals_general_block_exhaustive():
    grants = va = skipped = 0
    for case in lone_cases():
        sim = check_lone(case)
        grants += len(sim.sa_win[CENTRE5])
        va += sim.va
        skipped += case[4] == FRESH_HEAD and sim.va == 0
    # Not vacuous: most states grant, fresh heads ran VA, and the
    # look-ahead ablation held just-arrived ones back.
    assert grants > 3000 and va > 1000 and skipped == 4 * V * 2 * V * 2 * 5


@settings(max_examples=300, deadline=None)
@given(
    st.booleans(),
    st.integers(min_value=0, max_value=4 * V - 1),
    st.integers(min_value=0, max_value=1),
    st.tuples(*[st.integers(min_value=0, max_value=V - 1)] * 4),
    st.integers(min_value=0, max_value=1),
    st.sampled_from((BODY, HEAD, FRESH_HEAD)),
    st.sampled_from((TO_EJECT, TO_CREDIT, TO_DRY, TO_MATURING)),
)
def test_lone_kernel_mixed_pointers(lookahead, i, slot, local, g, kind, target):
    check_lone((lookahead, i, slot, (*local, g), kind, target))


#: One seeded fault per pointer move of the lone kernel, as source edits.
LONE_MUTANTS = {
    "local pointer stays on the winner": (
        "index + 1 if index + 1 < V else 0",
        "index",
    ),
    "global pointer stays on the winning slot": (
        "state[4] = 1 - slot",
        "state[4] = slot",
    ),
}


@pytest.mark.parametrize("name", sorted(LONE_MUTANTS))
def test_lone_kernel_check_catches_a_wrong_pointer_move(name):
    mutant = mutant_kernel("_allocate_roco_lone", *LONE_MUTANTS[name])
    with pytest.raises(AssertionError):
        for case in lone_cases():
            check_lone(case, lone=mutant)


# ----------------------------------------------------------------------
# Generic: the lone-VC kernel == the general block on every single-VC state
# ----------------------------------------------------------------------

GV = 3  # the generic router's paper default: three VCs per port


def generic_lone_state(
    routing, i, od, pointers, kind, target, just_arrived=False, turn=False
):
    """A 3x3 generic simulator whose centre router holds one flit, in the
    VC at walk position ``i`` (input port ``i // GV``), bound for output
    ``od``.  ``turn`` puts a fresh head's destination one hop past the
    neighbour on ``od``, round the corner: adaptive routing then has two
    productive outputs to order by congestion, ``od`` and the next
    direction clockwise, whose downstream VCs are left with credit."""
    config = SimulationConfig(
        width=3, height=3, router="generic", routing=routing, seed=1
    )
    sim = SoASimulator(config)
    sim.net_cycle = CYCLE
    lay = sim.layout
    n = CENTRE
    pid = sim._create_packet(n, lay.nodes[n], 0)
    sim.p_injected[pid] = 0
    facing = ()
    if od == LOCAL:
        sim.p_dest[pid] = n
    else:
        m = lay.nbr[n][od]
        sim.p_dest[pid] = lay.nbr[m][(od + 1) % 4] if turn else m
        facing = lay.gen_port_slots[m][(od + 2) % 4]
        for t in facing:
            if target == TO_OWNED:
                sim.owner[t] = pid + 1
            elif target != TO_CREDIT:
                sim.avail[t] = 0
                if target == TO_MATURING:
                    sim.rel[t] = [CYCLE]
    s = sim.bit_slot[n][i]
    head = pid * sim.F
    sim.occ_mask[n] = 1 << i
    sim.r_active[n] = True
    stage1, stage2 = pointers
    sim.arb[n] = [stage1] * 5 + [stage2] * 5
    if kind == FRESH_HEAD:
        sim.q[s] = [head]
        sim.f_arrival[head] = CYCLE if just_arrived else CYCLE - 1
        return sim
    fid = head if kind == HEAD else head + 1
    sim.q[s] = [fid]
    sim.f_arrival[fid] = CYCLE - 1
    if kind == BODY:
        sim.apid[s] = pid
    sim.out_dir[s] = od
    if od == LOCAL:
        sim.out_vc[s] = EJECT_CODE
    else:
        sim.out_vc[s] = facing[0]
        sim.owner[facing[0]] = pid
    return sim


def check_generic_lone(
    case, lone=SoASimulator._allocate_generic_lone
) -> SoASimulator:
    fast, general = generic_lone_state(*case), generic_lone_state(*case)
    lone(fast, CENTRE, CYCLE)
    general._allocate_generic(CENTRE, CYCLE)
    assert_twins_equal(fast, general, case)
    return fast


def generic_lone_cases():
    """Every single-VC state, every value of both SA pointers.

    The kernel writes the pointers without reading them, so each value
    of each pointer is met (stage 1 ``k mod V``, stage 2 ``k``) rather
    than every pair.  LOCAL is the ejecting output; a head goes fresh
    (VA now) with or without its post-arrival RC cycle pending, and
    under adaptive routing round a corner too.
    """
    cardinal = tuple(range(4))
    for routing, i, k in itertools.product(("xy", "adaptive"), range(5 * GV), range(5)):
        pointers = (k % GV, k)
        for kind in (BODY, HEAD):
            yield routing, i, LOCAL, pointers, kind, TO_EJECT
            for od, target in itertools.product(
                cardinal, (TO_CREDIT, TO_DRY, TO_MATURING)
            ):
                yield routing, i, od, pointers, kind, target
        turns = (False, True) if routing == "adaptive" else (False,)
        for just in (False, True):
            yield routing, i, LOCAL, pointers, FRESH_HEAD, TO_EJECT, just
            for od, target, turn in itertools.product(
                cardinal, (TO_CREDIT, TO_DRY, TO_MATURING, TO_OWNED), turns
            ):
                yield routing, i, od, pointers, FRESH_HEAD, target, just, turn


def test_generic_lone_kernel_equals_general_block_exhaustive():
    grants = va = skipped = turned = 0
    for case in generic_lone_cases():
        sim = check_generic_lone(case)
        grants += len(sim.sa_win[CENTRE])
        va += sim.va
        fresh = case[4] == FRESH_HEAD
        skipped += fresh and sim.va == 0
        s = sim.bit_slot[CENTRE][case[1]]
        turned += fresh and case[2] != LOCAL and sim.out_dir[s] == (case[2] + 1) % 4
    # Not vacuous: most states grant, fresh heads ran VA, just-arrived
    # ones waited out RC, and congestion sent some round the corner
    # first.
    assert grants > 4000 and va > 3000, (grants, va)
    assert skipped == 5 * GV * 5 * ((1 + 4 * 4) + (1 + 4 * 4 * 2)), skipped
    assert turned > 100, turned


#: One seeded fault per SA pointer move of the generic lone kernel.
GENERIC_LONE_MUTANTS = {
    "stage-1 pointer stays on the winner": (
        "arb[d] = (bit + 1) % self.V",
        "arb[d] = bit % self.V",
    ),
    "stage-2 pointer stays on the winning port": (
        "arb[5 + od] = (d + 1) % 5",
        "arb[5 + od] = d",
    ),
}


def mutant_kernel(name: str, old: str, new: str):
    """``SoASimulator.<name>`` compiled with one source edit."""
    source = textwrap.dedent(inspect.getsource(getattr(SoASimulator, name)))
    assert source.count(old) == 1, "the kernel changed: re-seed this mutant"
    namespace = dict(vars(engine_module))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[name]


@pytest.mark.parametrize("name", sorted(GENERIC_LONE_MUTANTS))
def test_generic_lone_kernel_check_catches_a_wrong_pointer_move(name):
    mutant = mutant_kernel("_allocate_generic_lone", *GENERIC_LONE_MUTANTS[name])
    with pytest.raises(AssertionError):
        for case in generic_lone_cases():
            check_generic_lone(case, lone=mutant)


def lone_run(monkeypatch, mirror: bool):
    """A short loaded run with the lone kernel booby-trapped."""

    def trap(self, n, cycle):
        raise RuntimeError("lone kernel entered")

    monkeypatch.setattr(SoASimulator, "_allocate_roco_lone", trap)
    config = SimulationConfig(
        width=4,
        height=4,
        router="roco",
        routing="xy",
        router_config=RouterConfig.for_architecture("roco", mirror_allocation=mirror),
        injection_rate=0.2,
        warmup_packets=10,
        measure_packets=60,
        seed=3,
        backend="soa",
    )
    return SoASimulator(config).run()


def test_sequential_allocator_ablation_never_enters_the_lone_kernel(monkeypatch):
    assert lone_run(monkeypatch, mirror=False).delivered_packets == 60
    with pytest.raises(RuntimeError, match="lone kernel entered"):
        lone_run(monkeypatch, mirror=True)
