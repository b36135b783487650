"""Evaluation metrics: latency, EDP, PEF and fault-campaign resilience."""

from repro.metrics.latency import LatencySummary, percentile
from repro.metrics.pef import PEFBreakdown, energy_delay_product, pef
from repro.metrics.resilience import (
    FaultCountPoint,
    PacketAccounting,
    ResilienceProbe,
    WindowPoint,
)

__all__ = [
    "FaultCountPoint",
    "LatencySummary",
    "PEFBreakdown",
    "PacketAccounting",
    "ResilienceProbe",
    "WindowPoint",
    "energy_delay_product",
    "pef",
    "percentile",
]
