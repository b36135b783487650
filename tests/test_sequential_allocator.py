"""Unit tests for the ablation (non-mirror) 2x2 allocator."""

from hypothesis import given
from hypothesis import strategies as st

from repro.arbiters.mirror import MirrorGrant, max_possible_matching
from repro.arbiters.sequential import SequentialAllocator

from .test_mirror import (
    check_lone_grant_equals_allocate,
    check_masks_equal_allocate,
    reqs,
)

request_matrix = st.lists(
    st.lists(st.lists(st.booleans(), min_size=3, max_size=3), min_size=2, max_size=2),
    min_size=2,
    max_size=2,
)


class TestSequentialAllocator:
    def test_single_request_granted(self):
        alloc = SequentialAllocator(3)
        grants = alloc.allocate(reqs(p1_slot0=(1,)))
        assert len(grants) == 1
        assert grants[0].port == 0 and grants[0].vc_index == 1

    def test_no_maximal_matching_guarantee(self):
        """The structural weakness the Mirror allocator removes: when a
        port's blind nominee targets a contested direction, the port can
        idle even though a different nominee would have matched."""
        alloc = SequentialAllocator(3)
        suboptimal = 0
        # P1 wants slot0 via vc0 and slot1 via vc1; P2 wants slot0 only.
        matrix = reqs(p1_slot0=(0,), p1_slot1=(1,), p2_slot0=(2,))
        for _ in range(8):
            grants = alloc.allocate(matrix)
            if len(grants) < max_possible_matching(matrix):
                suboptimal += 1
        assert suboptimal > 0

    @given(request_matrix)
    def test_grants_are_valid_and_disjoint(self, matrix):
        alloc = SequentialAllocator(3)
        grants = alloc.allocate(matrix)
        ports = [g.port for g in grants]
        slots = [g.direction_slot for g in grants]
        assert len(set(ports)) == len(ports)
        assert len(set(slots)) == len(slots)
        for g in grants:
            assert matrix[g.port][g.direction_slot][g.vc_index]

    @given(request_matrix)
    def test_never_beats_mirror(self, matrix):
        """Sequential matching size is bounded by the maximal matching."""
        alloc = SequentialAllocator(3)
        assert len(alloc.allocate(matrix)) <= max_possible_matching(matrix)

    @given(request_matrix)
    def test_work_conserving_for_single_port(self, matrix):
        """With only one port requesting, sequential always grants."""
        matrix = [matrix[0], [[False] * 3, [False] * 3]]
        alloc = SequentialAllocator(3)
        if any(any(slot) for slot in matrix[0]):
            assert len(alloc.allocate(matrix)) == 1


class TestLoneGrant:
    def test_lone_grant_equals_allocate_of_its_one_bit(self):
        """Every state of the two port and the two direction arbiters."""
        assert check_lone_grant_equals_allocate(SequentialAllocator) == 3**2 * 2**2 * 12

    def test_lone_grant_is_the_plain_tuple_of_its_mirror_grant(self):
        grant = SequentialAllocator(3).grant_lone(0, 1, 1)
        assert type(grant) is tuple and grant == MirrorGrant(0, 1, 1)


class TestMaskAllocate:
    def test_masks_equal_allocate_on_every_matrix(self):
        """4,095 non-empty matrices, each from the four joint states of
        the two direction arbiters."""
        assert check_masks_equal_allocate(SequentialAllocator) == 4095 * 4
