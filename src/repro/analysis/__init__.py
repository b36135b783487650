"""Analytical reproductions: Table 2 matching math, Figure 2 arbiter
inventory, and the zero-load and saturation models."""

from repro.analysis.arbitration import (
    ArbiterInventory,
    figure2,
    generic_va_inventory,
    roco_va_inventory,
)
from repro.analysis.model import (
    HOP_CYCLES,
    ZeroLoadEstimate,
    average_hops_uniform,
    bisection_saturation_rate,
    expected_saturation_rate,
    zero_load_latency,
)
from repro.analysis.matching import (
    generic_non_blocking_probability,
    non_blocking_assignments,
    non_blocking_assignments_bruteforce,
    path_sensitive_non_blocking_probability,
    roco_non_blocking_probability,
    table2,
)

__all__ = [
    "ArbiterInventory",
    "HOP_CYCLES",
    "ZeroLoadEstimate",
    "average_hops_uniform",
    "bisection_saturation_rate",
    "expected_saturation_rate",
    "zero_load_latency",
    "figure2",
    "generic_non_blocking_probability",
    "generic_va_inventory",
    "non_blocking_assignments",
    "non_blocking_assignments_bruteforce",
    "path_sensitive_non_blocking_probability",
    "roco_non_blocking_probability",
    "roco_va_inventory",
    "table2",
]
