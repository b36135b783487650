"""Unit tests for the analytical reproductions (Table 2, Figure 2)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    figure2,
    generic_non_blocking_probability,
    generic_va_inventory,
    non_blocking_assignments,
    path_sensitive_non_blocking_probability,
    roco_non_blocking_probability,
    roco_va_inventory,
    table2,
)


def non_blocking_assignments_bruteforce(n: int) -> int:
    """Brute-force count of F(N) for validating the recurrence.

    Enumerates every way each of the N inputs can pick one of its N-1
    allowed outputs (not its own index — no U-turns) and counts the
    assignments where all N outputs are covered.
    """
    count = 0
    choices = [[o for o in range(n) if o != i] for i in range(n)]
    for assignment in itertools.product(*choices):
        if len(set(assignment)) == n:
            count += 1
    return count


class TestEquationOne:
    def test_base_cases(self):
        assert non_blocking_assignments(1) == 0
        assert non_blocking_assignments(2) == 1

    def test_known_values(self):
        """F(N) is the derangement sequence: 0, 1, 2, 9, 44, 265."""
        assert [non_blocking_assignments(n) for n in range(1, 7)] == [
            0,
            1,
            2,
            9,
            44,
            265,
        ]

    @given(st.integers(1, 6))
    @settings(max_examples=6, deadline=None)
    def test_recurrence_matches_bruteforce(self, n):
        assert non_blocking_assignments(n) == non_blocking_assignments_bruteforce(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            non_blocking_assignments(-1)


class TestTable2:
    def test_generic_value(self):
        """44 / 4^5 = 0.0429..., printed as 0.043 in the paper."""
        assert generic_non_blocking_probability(5) == pytest.approx(
            0.043, abs=5e-4
        )

    def test_path_sensitive_value(self):
        assert path_sensitive_non_blocking_probability() == pytest.approx(0.125)

    def test_roco_value(self):
        assert roco_non_blocking_probability() == pytest.approx(0.25)

    def test_ordering(self):
        t = table2()
        assert t["generic"] < t["path_sensitive"] < t["roco"]

    def test_roco_six_times_generic(self):
        """'almost six times more likely ... (25% to 4.3%)'."""
        t = table2()
        assert t["roco"] / t["generic"] == pytest.approx(5.8, abs=0.2)

    def test_roco_twice_path_sensitive(self):
        t = table2()
        assert t["roco"] / t["path_sensitive"] == pytest.approx(2.0)


class TestFigure2:
    def test_roco_has_fewer_arbiters(self):
        """'FEWER (4v vs 5v) arbiters than generic case'."""
        v = 3
        generic = generic_va_inventory(v, "R=>v")
        roco = roco_va_inventory(v, "R=>v")
        assert generic.second_stage_count == 5 * v
        assert roco.second_stage_count == 4 * v

    def test_roco_has_smaller_arbiters(self):
        """'SMALLER (2v:1 vs 5v:1)'."""
        v = 3
        assert generic_va_inventory(v, "R=>v").second_stage_width == 5 * v
        assert roco_va_inventory(v, "R=>v").second_stage_width == 2 * v

    def test_r_to_p_adds_first_stage(self):
        v = 3
        generic = generic_va_inventory(v, "R=>P")
        assert generic.first_stage_count == 5 * v
        assert generic.first_stage_width == v

    def test_total_request_lines_favour_roco(self):
        for variant in ("R=>v", "R=>P"):
            g = generic_va_inventory(3, variant)
            r = roco_va_inventory(3, variant)
            assert r.total_request_lines < g.total_request_lines

    def test_figure2_bundle(self):
        bundle = figure2(3)
        assert set(bundle) == {
            "generic R=>v",
            "generic R=>P",
            "roco R=>v",
            "roco R=>P",
        }

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            generic_va_inventory(3, "R=>Q")
        with pytest.raises(ValueError):
            roco_va_inventory(3, "R=>Q")
