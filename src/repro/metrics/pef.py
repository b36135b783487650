"""Composite evaluation metrics: EDP and the paper's PEF.

The Performance-Energy-Fault-tolerance metric (Section 5.3) folds
reliability into the Energy-Delay Product:

    PEF = (average latency x energy per packet) / completion probability
        = EDP / completion probability

In a fault-free network the completion probability is 1 and PEF reduces
to EDP.  Units follow the paper: nJ x cycles / probability.
"""

from __future__ import annotations

from dataclasses import dataclass


def energy_delay_product(average_latency: float, energy_per_packet: float) -> float:
    """EDP in (energy unit) x cycles."""
    return average_latency * energy_per_packet


def pef(
    average_latency: float,
    energy_per_packet: float,
    completion_probability: float,
) -> float:
    """The paper's combined Performance-Energy-Fault-tolerance metric."""
    if not 0.0 < completion_probability <= 1.0:
        if completion_probability == 0.0:
            return float("inf")
        raise ValueError("completion probability must be within (0, 1]")
    return energy_delay_product(average_latency, energy_per_packet) / (
        completion_probability
    )


@dataclass(frozen=True)
class PEFBreakdown:
    """PEF along with the three ingredients, for reporting."""

    average_latency: float
    energy_per_packet_nj: float
    completion_probability: float

    @property
    def edp(self) -> float:
        return energy_delay_product(self.average_latency, self.energy_per_packet_nj)

    @property
    def value(self) -> float:
        return pef(
            self.average_latency,
            self.energy_per_packet_nj,
            self.completion_probability,
        )
