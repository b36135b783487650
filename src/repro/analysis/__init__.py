"""Analytical reproductions: Table 2 matching math, Figure 2 arbiter
inventory, and the bisection saturation bound."""

from repro.analysis.arbitration import (
    ArbiterInventory,
    figure2,
    generic_va_inventory,
    roco_va_inventory,
)
from repro.analysis.model import bisection_saturation_rate
from repro.analysis.matching import (
    generic_non_blocking_probability,
    non_blocking_assignments,
    path_sensitive_non_blocking_probability,
    roco_non_blocking_probability,
    table2,
)

__all__ = [
    "ArbiterInventory",
    "bisection_saturation_rate",
    "figure2",
    "generic_non_blocking_probability",
    "generic_va_inventory",
    "non_blocking_assignments",
    "path_sensitive_non_blocking_probability",
    "roco_non_blocking_probability",
    "roco_va_inventory",
    "table2",
]
