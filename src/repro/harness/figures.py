"""Per-figure reproduction runners — one entry point per paper artifact.

Each function regenerates the data behind one table or figure of the
paper's evaluation (Section 5) and returns it as plain dictionaries the
benchmarks assert on and the report module renders.  The experiment
index in DESIGN.md maps each function to its artifact.

Every simulation-backed runner takes an optional ``executor`` (a
:class:`~repro.harness.parallel.ParallelExecutor`): the full grid of
(router, routing, rate, seed) simulations behind a figure is submitted
as one batch, so a pooled executor saturates every core and a cached
one replays a previous run without simulating.  The default executor is
serial and uncached — identical results, one process.
"""

from __future__ import annotations

from repro.analysis.arbitration import figure2 as _figure2_inventory
from repro.analysis.matching import table2 as _table2_analytic
from repro.core.types import RoutingMode
from repro.harness.experiment import (
    ROUTERS,
    ROUTINGS,
    STANDARD,
    ExperimentScale,
    PointSpec,
    averaged_points,
    fault_population,
)
from repro.harness.parallel import ParallelExecutor
from repro.routers.roco.path_set import table1_summary

#: Operating point of the fault / energy experiments (Section 5.4:
#: "The traffic injection rate in these faulty networks was 30%").
FAULT_INJECTION_RATE = 0.30
#: Fault counts swept in Figures 11, 12 and 14.
FAULT_COUNTS = (1, 2, 4)
#: Traffic patterns of Figure 13.
ENERGY_TRAFFICS = ("uniform", "self_similar", "transpose")


def table1() -> dict[str, dict[str, list[str]]]:
    """Table 1 — RoCo VC buffer configuration per routing algorithm."""
    return {
        mode.value: table1_summary(mode)
        for mode in (RoutingMode.ADAPTIVE, RoutingMode.XY_YX, RoutingMode.XY)
    }


def table2() -> dict[str, float]:
    """Table 2 — non-blocking probabilities (analytic, N = 5)."""
    return _table2_analytic()


def figure2(v: int = 3) -> dict:
    """Figure 2 — VA arbiter inventory comparison."""
    return _figure2_inventory(v)


def figure3(
    scale: ExperimentScale = STANDARD,
    executor: ParallelExecutor | None = None,
) -> dict:
    """Figure 3 — contention probabilities vs offered load.

    Panels (a)/(b): row/column input contention under XY routing;
    panel (c): overall contention under adaptive routing.
    """
    specs = [
        PointSpec(router, routing, "uniform", rate)
        for router in ROUTERS
        for rate in scale.contention_rates
        for routing in (RoutingMode.XY, RoutingMode.ADAPTIVE)
    ]
    points = dict(zip(specs, averaged_points(specs, scale, executor=executor)))
    panels: dict[str, dict[str, list[tuple[float, float]]]] = {
        "row_xy": {},
        "column_xy": {},
        "adaptive": {},
    }
    for router in ROUTERS:
        row_curve, col_curve, ad_curve = [], [], []
        for rate in scale.contention_rates:
            xy = points[PointSpec(router, RoutingMode.XY, "uniform", rate)]
            ad = points[PointSpec(router, RoutingMode.ADAPTIVE, "uniform", rate)]
            row_curve.append((rate, xy["contention_row"]))
            col_curve.append((rate, xy["contention_column"]))
            ad_curve.append((rate, ad["contention_overall"]))
        panels["row_xy"][router] = row_curve
        panels["column_xy"][router] = col_curve
        panels["adaptive"][router] = ad_curve
    return panels


def latency_figure(
    traffic: str,
    scale: ExperimentScale = STANDARD,
    executor: ParallelExecutor | None = None,
) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """Figures 8/9/10 — average latency vs injection rate.

    Returns ``{routing: {router: [(rate, latency), ...]}}`` for the
    requested traffic pattern (uniform -> Fig. 8, self-similar -> Fig. 9,
    transpose -> Fig. 10).
    """
    specs = [
        PointSpec(router, routing, traffic, rate)
        for routing in ROUTINGS
        for router in ROUTERS
        for rate in scale.rates
    ]
    points = dict(zip(specs, averaged_points(specs, scale, executor=executor)))
    out: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for routing in ROUTINGS:
        out[routing.value] = {
            router: [
                (
                    rate,
                    points[PointSpec(router, routing, traffic, rate)][
                        "average_latency"
                    ],
                )
                for rate in scale.rates
            ]
            for router in ROUTERS
        }
    return out


def figure8(
    scale: ExperimentScale = STANDARD,
    executor: ParallelExecutor | None = None,
) -> dict:
    """Figure 8 — uniform random traffic latency curves."""
    return latency_figure("uniform", scale, executor)


def figure9(
    scale: ExperimentScale = STANDARD,
    executor: ParallelExecutor | None = None,
) -> dict:
    """Figure 9 — self-similar traffic latency curves."""
    return latency_figure("self_similar", scale, executor)


def figure10(
    scale: ExperimentScale = STANDARD,
    executor: ParallelExecutor | None = None,
) -> dict:
    """Figure 10 — transpose traffic latency curves."""
    return latency_figure("transpose", scale, executor)


def _fault_populations(
    scale: ExperimentScale, critical: bool
) -> dict[int, dict[int, list]]:
    """``{count: {seed: faults}}`` — identical across architectures."""
    return {
        count: {
            seed: fault_population(scale, count, critical, seed)
            for seed in scale.seeds
        }
        for count in FAULT_COUNTS
    }


def fault_figure(
    critical: bool,
    scale: ExperimentScale = STANDARD,
    executor: ParallelExecutor | None = None,
) -> dict[str, dict[str, dict[int, float]]]:
    """Figures 11/12 — packet completion probability under faults.

    ``critical`` selects the Figure-11 population (router-centric /
    critical-pathway components) versus Figure-12's (message-centric /
    non-critical).  Every architecture sees the same fault sites per
    (seed, count).  Returns ``{routing: {router: {n_faults: completion}}}``.
    """
    populations = _fault_populations(scale, critical)
    specs, faults, cells = [], [], []
    for routing in ROUTINGS:
        for router in ROUTERS:
            for count in FAULT_COUNTS:
                # The spec repeats for every fault count: cells and
                # faults are aligned with specs by position.
                specs.append(
                    PointSpec(router, routing, "uniform", FAULT_INJECTION_RATE)
                )
                cells.append((routing, router, count))
                faults.append(populations[count])
    points = averaged_points(specs, scale, faults, executor)
    out: dict[str, dict[str, dict[int, float]]] = {}
    for (routing, router, count), point in zip(cells, points):
        out.setdefault(routing.value, {}).setdefault(router, {})[count] = point[
            "completion_probability"
        ]
    return out


def figure11(
    scale: ExperimentScale = STANDARD,
    executor: ParallelExecutor | None = None,
) -> dict:
    """Figure 11 — completion under router-centric / critical faults."""
    return fault_figure(critical=True, scale=scale, executor=executor)


def figure12(
    scale: ExperimentScale = STANDARD,
    executor: ParallelExecutor | None = None,
) -> dict:
    """Figure 12 — completion under message-centric / non-critical faults."""
    return fault_figure(critical=False, scale=scale, executor=executor)


def figure13(
    scale: ExperimentScale = STANDARD,
    executor: ParallelExecutor | None = None,
) -> dict[str, dict[str, float]]:
    """Figure 13 — energy per packet (nJ) at 30% injection.

    Returns ``{traffic: {router: energy_nJ}}``.
    """
    specs = [
        PointSpec(router, RoutingMode.XY, traffic, FAULT_INJECTION_RATE)
        for traffic in ENERGY_TRAFFICS
        for router in ROUTERS
    ]
    points = dict(zip(specs, averaged_points(specs, scale, executor=executor)))
    return {
        traffic: {
            router: points[
                PointSpec(router, RoutingMode.XY, traffic, FAULT_INJECTION_RATE)
            ]["energy_per_packet_nj"]
            for router in ROUTERS
        }
        for traffic in ENERGY_TRAFFICS
    }


def figure14(
    scale: ExperimentScale = STANDARD,
    executor: ParallelExecutor | None = None,
) -> dict[str, dict[str, dict[int, dict[str, float]]]]:
    """Figure 14 — PEF and average latency under faults.

    Returns ``{fault_class: {router: {n_faults: {pef, latency,
    completion, energy}}}}`` with fault classes ``critical`` and
    ``non_critical`` (the figure's panels (a) and (b)).
    """
    specs, faults, cells = [], [], []
    for label, critical in (("critical", True), ("non_critical", False)):
        populations = _fault_populations(scale, critical)
        for router in ROUTERS:
            for count in FAULT_COUNTS:
                specs.append(
                    PointSpec(
                        router, RoutingMode.ADAPTIVE, "uniform", FAULT_INJECTION_RATE
                    )
                )
                cells.append((label, router, count))
                faults.append(populations[count])
    points = averaged_points(specs, scale, faults, executor)
    out: dict[str, dict[str, dict[int, dict[str, float]]]] = {}
    for (label, router, count), point in zip(cells, points):
        out.setdefault(label, {}).setdefault(router, {})[count] = {
            "pef": point["pef"],
            "latency": point["average_latency"],
            "completion": point["completion_probability"],
            "energy_nj": point["energy_per_packet_nj"],
        }
    return out
