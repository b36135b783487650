"""Replication statistics and saturation search.

Simulation outputs are random variables; this module provides the two
tools an evaluation needs to treat them honestly:

* :func:`replicate` — run one configuration across seeds and report
  mean / standard deviation / 95% confidence intervals per metric;
* :func:`find_saturation_rate` — bisection search for the offered load
  at which average latency crosses a multiple of the unloaded latency
  (the standard operational definition of saturation throughput).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.core.config import SimulationConfig
from repro.core.simulator import SimulationResult, run_simulation
from repro.harness.parallel import ParallelExecutor, is_failure_record

#: Two-sided 95% t-distribution critical values by degrees of freedom.
#: (Enough entries for typical seed counts; falls back to the normal
#: 1.96 beyond the table.)
_T95 = {
    1: 12.706,
    2: 4.303,
    3: 3.182,
    4: 2.776,
    5: 2.571,
    6: 2.447,
    7: 2.365,
    8: 2.306,
    9: 2.262,
    10: 2.228,
}

#: Metrics summarised by replicate().
REPLICATED_METRICS = (
    "average_latency",
    "throughput",
    "completion_probability",
    "energy_per_packet_nj",
    "pef",
)


@dataclass(frozen=True)
class MetricSummary:
    """Mean and spread of one metric over replications."""

    name: str
    samples: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def std(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        m = self.mean
        return math.sqrt(
            sum((s - m) ** 2 for s in self.samples) / (len(self.samples) - 1)
        )

    @property
    def ci95(self) -> float:
        """Half-width of the 95% confidence interval of the mean."""
        n = len(self.samples)
        if n < 2:
            return 0.0
        t = _T95.get(n - 1, 1.96)
        return t * self.std / math.sqrt(n)

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.mean:.3f} +- {self.ci95:.3f} "
            f"(n={len(self.samples)})"
        )


def replicate(
    config: SimulationConfig,
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5),
    executor: ParallelExecutor | None = None,
) -> dict[str, MetricSummary]:
    """Run ``config`` once per seed; summarise the headline metrics.

    Replications are independent, so an ``executor`` with workers runs
    them concurrently (and can serve them from its result cache); the
    summaries are identical to a serial run.
    """
    if not seeds:
        raise ValueError("replication needs at least one seed")
    if executor is None:
        executor = ParallelExecutor()
    configs = [replace(config, seed=seed) for seed in seeds]
    records = executor.run_configs(configs)
    # Under a resilient executor a quarantined seed arrives as a failure
    # record; summarise the surviving seeds rather than KeyError-ing.
    records = [r for r in records if not is_failure_record(r)]
    if not records:
        raise RuntimeError(
            f"every replication of {config.router}/{config.traffic} at "
            f"rate {config.injection_rate} failed"
        )
    return {
        metric: MetricSummary(metric, tuple(float(r[metric]) for r in records))
        for metric in REPLICATED_METRICS
    }


def find_saturation_rate(
    router: str,
    routing: str = "xy",
    traffic: str = "uniform",
    width: int = 8,
    height: int = 8,
    threshold_factor: float = 3.0,
    tolerance: float = 0.02,
    measure_packets: int = 700,
    seed: int = 7,
    run: Callable[[SimulationConfig], SimulationResult] | None = None,
) -> float:
    """Offered load where latency crosses ``threshold_factor`` x unloaded.

    Bisection over injection rate; the unloaded reference is measured at
    0.02 flits/node/cycle.  Returns the saturation estimate in
    flits/node/cycle (resolution ``tolerance``).  ``run`` replaces the
    simulation call — the benchbed passes an accounting wrapper.
    """
    simulate = run if run is not None else run_simulation

    def latency_at(rate: float) -> float:
        config = SimulationConfig(
            width=width,
            height=height,
            router=router,
            routing=routing,
            traffic=traffic,
            injection_rate=rate,
            warmup_packets=max(50, measure_packets // 6),
            measure_packets=measure_packets,
            max_cycles=80_000,
            seed=seed,
        )
        return simulate(config).average_latency

    base = latency_at(0.02)
    threshold = threshold_factor * base
    low, high = 0.05, 0.60
    if latency_at(high) < threshold:
        return high  # does not saturate within the searched range
    while high - low > tolerance:
        mid = (low + high) / 2
        if latency_at(mid) < threshold:
            low = mid
        else:
            high = mid
    return (low + high) / 2
