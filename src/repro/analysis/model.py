"""Saturation-throughput bound from bisection-channel load.

The zero-load pipeline model that the tests cross-validate against the
simulator lives with them, in ``tests/test_analysis_model.py``.
"""


def bisection_saturation_rate(k: int) -> float:
    """Upper bound on uniform-traffic throughput (flits/node/cycle).

    Half the nodes' traffic crosses the bisection with probability 1/2,
    over k channels per direction:  (k^2/2) * r * (1/2) <= k, so
    r <= 4 / k.
    """
    if k < 2:
        raise ValueError("mesh must be at least 2x2")
    return 4 / k
