"""Unit tests for the arbitration primitives."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arbiters import MatrixArbiter, RoundRobinArbiter


class TestRoundRobin:
    def test_single_requester_wins(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([False, False, True, False]) == 2

    def test_no_request_no_grant(self):
        arb = RoundRobinArbiter(3)
        assert arb.grant([False, False, False]) is None

    def test_rotation_after_grant(self):
        arb = RoundRobinArbiter(3)
        assert arb.grant([True, True, True]) == 0
        assert arb.grant([True, True, True]) == 1
        assert arb.grant([True, True, True]) == 2
        assert arb.grant([True, True, True]) == 0

    def test_persistent_requester_served_within_n_grants(self):
        arb = RoundRobinArbiter(4)
        served = set()
        for _ in range(4):
            served.add(arb.grant([True, True, True, True]))
        assert served == {0, 1, 2, 3}

    def test_wrong_width_rejected(self):
        arb = RoundRobinArbiter(3)
        with pytest.raises(ValueError):
            arb.grant([True])

    def test_zero_requesters_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    @given(st.lists(st.lists(st.booleans(), min_size=5, max_size=5), max_size=40))
    def test_grant_is_always_a_requester(self, request_seq):
        arb = RoundRobinArbiter(5)
        for requests in request_seq:
            winner = arb.grant(requests)
            if any(requests):
                assert winner is not None and requests[winner]
            else:
                assert winner is None

    @pytest.mark.parametrize("n", range(1, 7))
    def test_grant_mask_equals_grant(self, n):
        """Every pointer and every non-empty request set: ``grant_mask``
        of the set's bits grants the line ``grant`` of its lines grants,
        and leaves the pointer where ``grant`` leaves it."""
        for pointer in range(n):
            for mask in range(1, 1 << n):
                lines = [bool(mask >> line & 1) for line in range(n)]
                by_lines, by_mask = RoundRobinArbiter(n), RoundRobinArbiter(n)
                by_lines._next = by_mask._next = pointer
                assert by_mask.grant_mask(mask) == by_lines.grant(lines)
                assert by_mask._next == by_lines._next, (n, pointer, mask)

    def test_grant_mask_of_nothing_is_idle(self):
        arb = RoundRobinArbiter(4)
        arb._next = 2
        assert arb.grant_mask(0) is None
        assert arb._next == 2

    def test_grant_mask_builds_nothing_sized_by_width(self):
        """A 32-line arbiter grants from its mask by bit arithmetic: no
        table of 2**32 request sets (nor any that grows with the width)."""
        arb = RoundRobinArbiter(32)
        masks = [1 << 31, 1, (1 << 32) - 1, 0b1010 << 20, 1 << 31 | 1]
        tracemalloc.start()
        try:
            winners = [arb.grant_mask(mask) for mask in masks]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert winners == [31, 0, 1, 21, 31]
        assert peak < 4096, peak
        assert sorted(vars(arb)) == ["_next", "num_requesters"]


class TestMatrixArbiter:
    def test_single_requester(self):
        arb = MatrixArbiter(4)
        assert arb.grant([False, True, False, False]) == 1

    def test_least_recently_served_priority(self):
        arb = MatrixArbiter(3)
        assert arb.grant([True, True, True]) == 0
        # 0 demoted: next winner among {1, 2} is 1.
        assert arb.grant([True, True, True]) == 1
        assert arb.grant([True, True, True]) == 2
        assert arb.grant([True, True, True]) == 0

    def test_winner_demoted_below_nonrequesters_too(self):
        arb = MatrixArbiter(2)
        assert arb.grant([True, False]) == 0
        assert arb.grant([True, True]) == 1

    @given(st.lists(st.lists(st.booleans(), min_size=4, max_size=4), max_size=40))
    def test_always_grants_a_requester(self, request_seq):
        arb = MatrixArbiter(4)
        for requests in request_seq:
            winner = arb.grant(requests)
            if any(requests):
                assert winner is not None and requests[winner]
            else:
                assert winner is None

    @given(st.integers(2, 6))
    def test_fairness_under_saturation(self, n):
        """Every line is served exactly once per n grants at saturation."""
        arb = MatrixArbiter(n)
        winners = [arb.grant([True] * n) for _ in range(2 * n)]
        for start in range(0, 2 * n, n):
            assert set(winners[start : start + n]) == set(range(n))
