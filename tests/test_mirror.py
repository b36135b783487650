"""Unit and property tests for the Mirroring Effect allocator (Figure 4)."""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from repro.arbiters.mirror import (
    MirrorAllocator,
    MirrorGrant,
    max_possible_matching,
)
from repro.arbiters.round_robin import RoundRobinArbiter
from repro.arbiters.sequential import SequentialAllocator


def reqs(p1_slot0=(), p1_slot1=(), p2_slot0=(), p2_slot1=(), num_vcs=3):
    """Build a request matrix from VC-index tuples."""
    matrix = [[[False] * num_vcs for _ in range(2)] for _ in range(2)]
    for vc in p1_slot0:
        matrix[0][0][vc] = True
    for vc in p1_slot1:
        matrix[0][1][vc] = True
    for vc in p2_slot0:
        matrix[1][0][vc] = True
    for vc in p2_slot1:
        matrix[1][1][vc] = True
    return matrix


class TestMirrorCases:
    def test_perfect_mirror_pairing(self):
        """P1->slot0 and P2->slot1 are served simultaneously."""
        alloc = MirrorAllocator(3)
        grants = alloc.allocate(reqs(p1_slot0=(0,), p2_slot1=(1,)))
        assert {(g.port, g.direction_slot) for g in grants} == {(0, 0), (1, 1)}

    def test_conflicting_single_direction(self):
        """Both ports want the same output: only one passes."""
        alloc = MirrorAllocator(3)
        grants = alloc.allocate(reqs(p1_slot0=(0,), p2_slot0=(0,)))
        assert len(grants) == 1

    def test_mirror_steers_port1_to_enable_port2(self):
        """P1 can go either way, P2 only slot0: P1 must take slot1."""
        alloc = MirrorAllocator(3)
        grants = alloc.allocate(reqs(p1_slot0=(0,), p1_slot1=(1,), p2_slot0=(2,)))
        assert len(grants) == 2
        by_port = {g.port: g.direction_slot for g in grants}
        assert by_port[0] == 1 and by_port[1] == 0

    def test_port2_served_when_port1_idle(self):
        alloc = MirrorAllocator(3)
        grants = alloc.allocate(reqs(p2_slot1=(2,)))
        assert grants == [MirrorGrant(1, 1, 2)]

    def test_no_requests_no_grants(self):
        alloc = MirrorAllocator(3)
        assert alloc.allocate(reqs()) == []

    def test_at_most_one_grant_per_port_and_slot(self):
        alloc = MirrorAllocator(3)
        grants = alloc.allocate(
            reqs(p1_slot0=(0, 1), p1_slot1=(2,), p2_slot0=(0,), p2_slot1=(1, 2))
        )
        ports = [g.port for g in grants]
        slots = [g.direction_slot for g in grants]
        assert len(set(ports)) == len(ports)
        assert len(set(slots)) == len(slots)

    def test_local_arbiters_rotate(self):
        alloc = MirrorAllocator(3)
        winners = []
        for _ in range(3):
            grants = alloc.allocate(reqs(p1_slot0=(0, 1, 2)))
            winners.append(grants[0].vc_index)
        assert set(winners) == {0, 1, 2}

    def test_global_tie_break_alternates(self):
        alloc = MirrorAllocator(3)
        slots = []
        for _ in range(4):
            grants = alloc.allocate(reqs(p1_slot0=(0,), p1_slot1=(1,)))
            slots.append(grants[0].direction_slot)
        assert set(slots) == {0, 1}


request_matrix = st.lists(
    st.lists(st.lists(st.booleans(), min_size=3, max_size=3), min_size=2, max_size=2),
    min_size=2,
    max_size=2,
)


class TestMirrorProperties:
    @given(request_matrix)
    def test_matching_is_always_maximal(self, matrix):
        """The Mirroring Effect's headline property (Section 3.3)."""
        alloc = MirrorAllocator(3)
        grants = alloc.allocate(matrix)
        assert len(grants) == max_possible_matching(matrix)

    @given(request_matrix)
    def test_grants_are_valid_requests(self, matrix):
        alloc = MirrorAllocator(3)
        for g in alloc.allocate(matrix):
            assert matrix[g.port][g.direction_slot][g.vc_index]

    @given(st.lists(request_matrix, max_size=20))
    def test_maximality_holds_across_arbiter_state(self, matrices):
        """Internal rotating priorities never break maximality."""
        alloc = MirrorAllocator(3)
        for matrix in matrices:
            grants = alloc.allocate(matrix)
            assert len(grants) == max_possible_matching(matrix)


def all_request_matrices(num_vcs: int):
    """Every possible 2x2x``num_vcs`` boolean request matrix."""
    cells = 2 * 2 * num_vcs
    for bits in itertools.product((False, True), repeat=cells):
        it = iter(bits)
        yield [[[next(it) for _ in range(num_vcs)] for _ in range(2)] for _ in range(2)]


class TestMirrorExhaustive:
    """Exhaustive check over all 4096 request patterns (2 VCs would be
    1/8 of the space; the shipped crossbar has 3 VCs per slot)."""

    def test_matching_is_maximum_for_every_pattern(self):
        """No pattern exists where the allocator leaves capacity unused."""
        alloc = MirrorAllocator(3)
        for matrix in all_request_matrices(3):
            grants = alloc.allocate(matrix)
            assert len(grants) == max_possible_matching(matrix), matrix

    def test_no_grantable_request_left_ungranted(self):
        """Maximality, stated locally: any ungranted request conflicts
        with a grant on its input port or its output slot."""
        alloc = MirrorAllocator(3)
        for matrix in all_request_matrices(3):
            grants = alloc.allocate(matrix)
            granted_ports = {g.port for g in grants}
            granted_slots = {g.direction_slot for g in grants}
            for port, slot, vc in itertools.product(range(2), range(2), range(3)):
                if matrix[port][slot][vc]:
                    assert port in granted_ports or slot in granted_slots, (
                        f"request ({port},{slot},{vc}) grantable but ungranted "
                        f"in {matrix}"
                    )

    def test_grants_always_reference_real_requests(self):
        alloc = MirrorAllocator(3)
        for matrix in all_request_matrices(3):
            for g in alloc.allocate(matrix):
                assert matrix[g.port][g.direction_slot][g.vc_index]


def arbiters_of(value) -> list[RoundRobinArbiter]:
    """Every round-robin arbiter of a 2x2 allocator, in a fixed order."""
    if isinstance(value, RoundRobinArbiter):
        return [value]
    if isinstance(value, list):
        return [a for item in value for a in arbiters_of(item)]
    if isinstance(value, (MirrorAllocator, SequentialAllocator)):
        return arbiters_of(list(vars(value).values()))
    return []


def check_lone_grant_equals_allocate(make, num_vcs: int = 3) -> int:
    """``grant_lone(port, slot, vc)`` against ``allocate`` of the one-bit
    matrix, from every arbiter state: the same grant, and every
    arbiter's pointer left the same.  Returns the cases checked."""
    cases = 0
    probe = arbiters_of(make(num_vcs))
    for state in itertools.product(*(range(a.num_requesters) for a in probe)):
        for port, slot, vc in itertools.product(range(2), range(2), range(num_vcs)):
            lone, full = make(num_vcs), make(num_vcs)
            for allocator in (lone, full):
                for arbiter, pointer in zip(arbiters_of(allocator), state):
                    arbiter._next = pointer
            matrix = reqs(num_vcs=num_vcs)
            matrix[port][slot][vc] = True
            assert [lone.grant_lone(port, slot, vc)] == full.allocate(matrix), (
                state, port, slot, vc,
            )
            assert [a._next for a in arbiters_of(lone)] == [
                a._next for a in arbiters_of(full)
            ], (state, port, slot, vc)
            cases += 1
    return cases


def masks_of(matrix) -> tuple[int, int, int, int]:
    """``allocate_masks``'s arguments for a bool matrix: m00, m01, m10,
    m11, bit ``i`` set where VC ``i`` requests."""
    return tuple(
        sum(1 << vc for vc, requested in enumerate(line) if requested)
        for port in matrix
        for line in port
    )


def check_masks_equal_allocate(make, num_vcs: int = 3) -> int:
    """``allocate_masks`` against ``allocate`` on every non-empty matrix:
    the same grants in the same order, as plain tuples, and every
    arbiter's pointer left the same.  The v:1 arbiters start each matrix
    at pointers that rotate from matrix to matrix; the 2:1 arbiters
    start at each of their joint states.  Returns the cases checked."""
    cases = 0
    probe = arbiters_of(make(num_vcs))
    wide = [j for j, a in enumerate(probe) if a.num_requesters == num_vcs]
    narrow = [j for j, a in enumerate(probe) if a.num_requesters != num_vcs]
    pairs = list(itertools.product(*(range(probe[j].num_requesters) for j in narrow)))
    for number, matrix in enumerate(all_request_matrices(num_vcs)):
        masks = masks_of(matrix)
        if not any(masks):
            continue
        state = [0] * len(probe)
        for k, j in enumerate(wide):
            state[j] = (number // num_vcs**k + k) % num_vcs
        for pointers in pairs:
            for j, pointer in zip(narrow, pointers):
                state[j] = pointer
            masked, full = make(num_vcs), make(num_vcs)
            for allocator in (masked, full):
                for arbiter, pointer in zip(arbiters_of(allocator), state):
                    arbiter._next = pointer
            got = masked.allocate_masks(*masks)
            want = full.allocate(matrix)
            assert got == want and all(type(g) is tuple for g in got), (
                state, matrix,
            )
            assert [a._next for a in arbiters_of(masked)] == [
                a._next for a in arbiters_of(full)
            ], (state, matrix)
            cases += 1
    return cases


class TestLoneGrant:
    def test_lone_grant_equals_allocate_of_its_one_bit(self):
        """Every state of the four local and the global arbiter."""
        assert check_lone_grant_equals_allocate(MirrorAllocator) == 3**4 * 2 * 12

    def test_lone_grant_is_the_plain_tuple_of_its_mirror_grant(self):
        grant = MirrorAllocator(3).grant_lone(1, 0, 2)
        assert type(grant) is tuple and grant == MirrorGrant(1, 0, 2)


class TestMaskAllocate:
    def test_masks_equal_allocate_on_every_matrix(self):
        """4,095 non-empty matrices, each from both global pointers."""
        assert check_masks_equal_allocate(MirrorAllocator) == 4095 * 2
