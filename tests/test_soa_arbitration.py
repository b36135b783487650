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

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arbiters.mirror import MirrorAllocator
from repro.arbiters.round_robin import RoundRobinArbiter
from repro.core.config import RouterConfig, SimulationConfig
from repro.core.soa.engine import SoASimulator, _rr
from repro.core.soa.layout import EJECT_CODE, LOCAL, NONE_CODE
from repro.core.soa.state import decode_state, encode_state, state_diff

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
