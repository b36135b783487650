"""One scenario front end for the command line and the job server.

A *scenario* is what a :class:`~repro.harness.parallel.SimJob` holds: a
configuration, a static fault population, a runtime fault schedule.
``python -m repro`` spells it with the flags declared here
(:data:`CONFIG_FLAGS`, :data:`FAULT_FLAGS`, :data:`CAMPAIGN_FLAGS`,
added by :func:`add_flags`), parsed flags become a job in one place
(:func:`job_from_args`), and sampled campaigns — from ``--mtbf`` or from
a server ``campaign`` request — are drawn by one call
(:func:`sampled_schedule`).
"""

from __future__ import annotations

import argparse
import random

from repro.core.config import SimulationConfig
from repro.core.types import RoutingMode, grid_nodes
from repro.faults.injector import random_faults
from repro.faults.schedule import FaultSchedule
from repro.harness.parallel import SimJob
from repro.routers import ROUTER_CLASSES
from repro.traffic import TRAFFIC_CLASSES

#: The flags that set :class:`SimulationConfig` fields.
CONFIG_FLAGS = {
    "--router": dict(choices=sorted(ROUTER_CLASSES), default="roco"),
    "--routing": dict(choices=[mode.value for mode in RoutingMode], default="xy"),
    "--traffic": dict(choices=sorted(TRAFFIC_CLASSES), default="uniform"),
    "--rate": dict(type=float, default=0.2, help="injection rate (flits/node/cycle)"),
    "--size": dict(type=int, default=8, help="mesh is size x size"),
    "--topology": dict(
        choices=["mesh", "torus"],
        default="mesh",
        help="torus requires --router generic with XY routing",
    ),
    "--packets": dict(type=int, default=2000, help="measured packets"),
    "--warmup": dict(type=int, default=300),
    "--seed": dict(type=int, default=1),
    "--backend": dict(
        choices=("object", "soa"),
        default="object",
        help="soa is the fast engine on its envelope (docs/vectorized-core.md)",
    ),
    "--audit": dict(
        action="store_true",
        help="check every invariant every cycle; a violation exits 1 "
        "(docs/auditing.md)",
    ),
}

#: The random fault population: how many, and of which class.
FAULT_FLAGS = {
    "--faults": dict(type=int, default=0, help="number of random permanent faults"),
    "--fault-class": dict(
        choices=["critical", "non-critical"],
        default="critical",
        help="Figure-11 (router-centric) vs Figure-12 (message-centric) population",
    ),
}

#: Runtime campaigns: faults that strike mid-run instead of at cycle 0.
CAMPAIGN_FLAGS = {
    "--fault-schedule": dict(
        metavar="FILE",
        help="JSON fault-schedule file (see docs/fault-model.md) to run mid-simulation",
    ),
    "--mtbf": dict(
        type=float,
        metavar="CYCLES",
        help="sample --faults arrivals with this mean time between failures",
    ),
    "--weibull-shape": dict(
        type=float,
        metavar="K",
        help="Weibull shape for --mtbf arrivals (default: exponential)",
    ),
    "--transient": dict(
        type=int,
        metavar="CYCLES",
        help="make scheduled faults transient, healing after this many cycles",
    ),
}


def add_flags(target, flags: dict[str, dict]) -> None:
    """Declare ``flags`` on a parser or argument group."""
    for flag, spec in flags.items():
        target.add_argument(flag, **spec)


def sampled_schedule(config: SimulationConfig, **sampling) -> FaultSchedule:
    """Fault arrivals sampled over ``config``'s own mesh.

    ``sampling`` is ``count``, ``mtbf`` and the optional ``critical``,
    ``weibull_shape`` and ``duration`` of :meth:`FaultSchedule.sampled`;
    the draw is seeded by ``config.seed``, so a scenario names its
    campaign as reproducibly as it names its traffic.
    """
    return FaultSchedule.sampled(
        grid_nodes(config.width, config.height),
        seed=config.seed,
        router_config=config.router_config,
        **sampling,
    )


def job_from_args(args: argparse.Namespace) -> SimJob:
    """The job a parsed command line describes.

    ``--fault-schedule`` loads a runtime campaign and ``--faults N
    --mtbf M`` samples one; ``--faults N`` alone draws a static
    population that strikes at cycle 0.
    """
    config = SimulationConfig(
        width=args.size,
        height=args.size,
        topology=args.topology,
        router=args.router,
        routing=args.routing,
        traffic=args.traffic,
        injection_rate=args.rate,
        warmup_packets=args.warmup,
        measure_packets=args.packets,
        seed=args.seed,
        audit=args.audit,
        backend=args.backend,
    )
    if args.fault_schedule is not None:
        return SimJob(config, schedule=FaultSchedule.from_json(args.fault_schedule))
    if not args.faults:
        return SimJob.of(config)
    critical = args.fault_class == "critical"
    if args.mtbf is None:
        faults = random_faults(
            grid_nodes(config.width, config.height),
            args.faults,
            random.Random(args.seed),
            critical=critical,
        )
        return SimJob.of(config, faults)
    return SimJob(
        config,
        schedule=sampled_schedule(
            config,
            count=args.faults,
            mtbf=args.mtbf,
            critical=critical,
            weibull_shape=args.weibull_shape,
            duration=args.transient,
        ),
    )
