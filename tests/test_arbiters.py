"""Unit tests for the arbitration primitives."""

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
