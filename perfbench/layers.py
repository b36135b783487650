"""Which callables are layer boundaries, and what their spans add up to.

Layer names are the packages under ``src/repro``.  :func:`install` wraps
each layer's public callables for the traced pass; :func:`layer_metrics`
turns the recorded totals, the untraced pass of the same run and the
program's own public counters into the per-layer metrics declared in
``BENCHMARK.json``.
"""

from __future__ import annotations

from repro.arbiters.matrix import MatrixArbiter
from repro.arbiters.mirror import MirrorAllocator
from repro.arbiters.round_robin import RoundRobinArbiter
from repro.core.shard import TileSimulator
from repro.core.simulator import Simulator, Source, run_simulation
from repro.core.network import Network
from repro.core.soa.engine import SoASimulator
from repro.core.soa.layout import build_layout
from repro.energy.model import EnergyModel
from repro.faults.injector import apply_faults
from repro.faults.reachability import ReachabilityMap
from repro.faults.runtime import RuntimeFaultEngine
from repro.harness.export import result_record
from repro.harness.parallel import (
    ParallelExecutor,
    ResultCache,
    execute_job,
    job_key,
)
from repro.harness.resilient import SweepJournal
from repro.harness.sharded import (
    ShardPlan,
    build_generation_schedule,
    run_sharded_simulation,
)
from repro.metrics.latency import LatencySummary
from repro.routers import ROUTER_CLASSES
from repro.routers.base import BaseRouter
from repro.routing import AdaptiveRouting, XYRouting, XYYXRouting
from repro.serve.broker import JobBroker
from repro.serve.client import ServeClient
from repro.serve.protocol import normalize_request
from repro.traffic import TRAFFIC_CLASSES

from perfbench.tracing import Totals, Tracer


class Boundaries:
    """The wrappers of one traced pass plus the counts they observe."""

    def __init__(self, tracer: Tracer, fine: bool) -> None:
        self.tracer = tracer
        self.mirror_grants = 0
        self.mirror_inputs = 0
        self._coarse()
        if fine:
            self._fine()

    def _coarse(self) -> None:
        """Boundaries crossed at most a few times per simulation."""
        t = self.tracer
        t.wrap_function(run_simulation, "core.run_simulation")
        t.wrap_method(Simulator, "__init__", "core.simulator.build")
        t.wrap_method(Simulator, "run", "core.simulator.run")
        t.wrap_method(EnergyModel, "report", "energy.report")
        t.wrap_method(LatencySummary, "from_samples", "metrics.latency_summary")
        t.wrap_function(result_record, "harness.export.result_record")
        t.wrap_function(apply_faults, "faults.injector.apply")
        t.wrap_method(RuntimeFaultEngine, "apply", "faults.runtime.apply")
        t.wrap_method(RuntimeFaultEngine, "clear", "faults.runtime.clear")
        t.wrap_function(build_layout, "core.soa.layout")
        t.wrap_method(SoASimulator, "__init__", "core.soa.build")
        t.wrap_method(SoASimulator, "run", "core.soa.run")
        # The process driver's tiles run elsewhere: only the in-process
        # driver's span has the tile spans as children.
        t.wrap_function(
            run_sharded_simulation,
            "harness.sharded.run",
            suffix_from=lambda args, kwargs: (
                ".inline" if kwargs.get("inline") else ".process"
            ),
        )
        t.wrap_method(ShardPlan, "plan", "harness.sharded.plan")
        t.wrap_function(build_generation_schedule, "harness.sharded.oracle")
        for attr in ("front", "alloc", "finish"):
            t.wrap_method(
                TileSimulator,
                attr,
                f"core.shard.tile_{attr}",
                suffix_from=lambda args, kwargs: f"#{args[0].tile_index}",
            )
        t.wrap_function(job_key, "harness.parallel.job_key")
        t.wrap_function(execute_job, "harness.parallel.execute_job")
        t.wrap_method(ParallelExecutor, "run_jobs", "harness.parallel.run_jobs")
        t.wrap_method(ResultCache, "lookup", "harness.parallel.cache.lookup")
        t.wrap_method(ResultCache, "store", "harness.parallel.cache.store")
        t.wrap_method(SweepJournal, "record_ok", "harness.resilient.journal.record_ok")
        t.wrap_method(SweepJournal, "flush", "harness.resilient.journal.flush")
        t.wrap_function(normalize_request, "serve.protocol.normalize")
        # Server-side spans run on the server's threads; the job key is
        # the one identifier a request's spans share across threads.
        t.wrap_method(
            JobBroker,
            "submit",
            "serve.broker.submit",
            op_from=lambda args, ticket: getattr(ticket, "key", None),
        )
        t.wrap_method(
            JobBroker, "result", "serve.broker.result", op_from=_second_argument
        )
        t.wrap_method(
            ServeClient,
            "submit",
            "serve.client.submit",
            op_from=lambda args, reply: reply["jobs"][0]["key"] if reply else None,
        )
        t.wrap_method(
            ServeClient, "result", "serve.client.result", op_from=_second_argument
        )
        t.wrap_method(
            ServeClient, "events", "serve.client.events", op_from=_second_argument
        )

    def _fine(self) -> None:
        """Boundaries crossed per router per cycle."""
        t = self.tracer
        t.wrap_method(Source, "inject", "core.source.inject")
        t.wrap_method(Network, "step", "core.network.step")
        t.wrap_method(BaseRouter, "deliver_due", "routers.deliver")
        t.wrap_method(BaseRouter, "deliver_incoming", "routers.deliver")
        t.wrap_method(BaseRouter, "traverse", "routers.traverse")
        t.wrap_method(BaseRouter, "quiescent", "routers.quiescent")
        for architecture, cls in ROUTER_CLASSES.items():
            t.wrap_method(cls, "allocate", f"routers.{architecture}.allocate")
            t.wrap_method(cls, "quiescent", "routers.quiescent")
        t.wrap_method(
            MirrorAllocator,
            "allocate",
            "arbiters.mirror.allocate",
            observe=self._observe_mirror,
        )
        t.wrap_method(RoundRobinArbiter, "grant", "arbiters.round_robin.grant")
        t.wrap_method(MatrixArbiter, "grant", "arbiters.matrix.grant")
        for cls in (XYRouting, XYYXRouting, AdaptiveRouting):
            t.wrap_method(cls, "candidates", "routing.candidates")
        t.wrap_method(ReachabilityMap, "reachable", "faults.reachability.reachable")
        seen: set[type] = set()
        for pattern in TRAFFIC_CLASSES.values():
            for cls in pattern.__mro__:
                if cls is object or cls in seen:
                    continue
                seen.add(cls)
                for attr in ("arrivals", "destination"):
                    method = cls.__dict__.get(attr)
                    if method is not None and not getattr(
                        method, "__isabstractmethod__", False
                    ):
                        t.wrap_method(cls, attr, f"traffic.{attr}")

    def _observe_mirror(self, args, grants) -> None:
        requests = args[1]
        self.mirror_inputs += sum(
            1 for port in requests if True in port[0] or True in port[1]
        )
        self.mirror_grants += len(grants or ())


def _second_argument(args, result):
    return args[1] if len(args) > 1 else None


def path_rate(host, samples, path: str, of: str = "work", keys=None) -> float:
    """``of`` (work or cycles) per reference second over one path's samples."""
    chosen = [
        s
        for s in samples
        if s.path == path and (keys is None or s.unit.split(":", 1)[1] in keys)
    ]
    seconds = sum(
        s.wall / host.slowness(s.started, s.started + s.wall) for s in chosen
    )
    return sum(getattr(s, of) for s in chosen) / seconds if seconds else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    names: list[str],
    workload,
    untraced: list,
    traced: list,
    traced_wall: float,
    tracer: Tracer,
    boundaries: Boundaries,
) -> dict[str, float]:
    """Every declared per-layer metric; 0 for layers the workload skips.

    Times come from the traced pass (``traced`` samples, ``traced_wall``
    seconds of operations) and are raw host seconds; throughputs and
    latencies come from the untraced pass of the same run (``untraced``
    samples and ``workload``, which also carries both passes' failure
    and mismatch counts) and are in reference seconds, like the
    end-to-end metrics.
    """
    totals = Totals(tracer.totals())
    host = workload.host
    values = dict.fromkeys(names, 0.0)
    allocate = [f"routers.{a}.allocate" for a in ROUTER_CLASSES]
    tiles = totals.matching("core.shard.tile_front#")
    tile_compute = [
        totals.total_s(name, name.replace("tile_front", "tile_alloc"))
        for name in tiles
    ]
    soa_keys = {s.unit.split(":", 1)[1] for s in untraced if s.path == "soa"}
    object_rate = path_rate(host, untraced, "object", "cycles")
    soa_rate = path_rate(host, untraced, "soa", "cycles")
    shard_rate = path_rate(host, untraced, "shard", "cycles")
    inline_rate = path_rate(host, untraced, "shard_inline", "cycles")
    cold_wall = sum(s.wall for s in traced if s.path == "classic")
    resilient_wall = sum(s.wall for s in traced if s.path == "resilient")
    execute_s = totals.total_s("harness.parallel.execute_job")
    requests = totals.calls("serve.client.submit")
    client_s = totals.total_s("serve.client.submit", "serve.client.result")
    broker_s = totals.total_s("serve.broker.submit", "serve.broker.result")
    untraced_wall = sum(s.wall for s in untraced)
    computed = {
        "core.simulator.build_s": totals.total_s("core.simulator.build"),
        "core.simulator.run_self_s": totals.self_s("core.simulator.run"),
        "core.source.inject_s": totals.self_s("core.source.inject"),
        "core.source.inject_calls": totals.calls("core.source.inject"),
        "core.network.step_self_s": totals.self_s("core.network.step"),
        "core.network.step_calls": totals.calls("core.network.step"),
        "routers.deliver_s": totals.self_s("routers.deliver"),
        "routers.traverse_s": totals.self_s("routers.traverse"),
        "routers.allocate_self_s": totals.self_s(*allocate),
        "routers.quiescent_s": totals.self_s("routers.quiescent"),
        "arbiters.mirror.allocate_s": totals.self_s("arbiters.mirror.allocate"),
        "arbiters.mirror.calls": totals.calls("arbiters.mirror.allocate"),
        "arbiters.mirror.grant_ratio": ratio(
            boundaries.mirror_grants, boundaries.mirror_inputs
        ),
        "arbiters.round_robin.grant_s": totals.self_s("arbiters.round_robin.grant"),
        "arbiters.round_robin.calls": totals.calls("arbiters.round_robin.grant"),
        "arbiters.matrix.grant_s": totals.self_s("arbiters.matrix.grant"),
        "arbiters.matrix.calls": totals.calls("arbiters.matrix.grant"),
        "routing.candidates_s": totals.self_s("routing.candidates"),
        "routing.candidates_calls": totals.calls("routing.candidates"),
        "traffic.arrivals_s": totals.self_s("traffic.arrivals"),
        "traffic.arrivals_calls": totals.calls("traffic.arrivals"),
        "traffic.destination_s": totals.self_s("traffic.destination"),
        "traffic.destination_calls": totals.calls("traffic.destination"),
        "energy.report_s": totals.total_s("energy.report"),
        "metrics.latency_summary_s": totals.total_s("metrics.latency_summary"),
        "harness.export.result_record_s": totals.total_s(
            "harness.export.result_record"
        ),
        "faults.injector.apply_s": totals.total_s("faults.injector.apply"),
        "faults.runtime.apply_s": totals.total_s(
            "faults.runtime.apply", "faults.runtime.clear"
        ),
        "faults.runtime.events": totals.calls(
            "faults.runtime.apply", "faults.runtime.clear"
        ),
        "faults.reachability.reachable_s": totals.total_s(
            "faults.reachability.reachable"
        ),
        "faults.reachability.calls": totals.calls("faults.reachability.reachable"),
        "core.soa.build_s": totals.total_s("core.soa.build"),
        "core.soa.run_s": totals.total_s("core.soa.run"),
        "core.soa.vs_object_ratio": ratio(
            soa_rate, path_rate(host, untraced, "object", "cycles", soa_keys)
        ),
        "harness.sharded.plan_s": totals.total_s("harness.sharded.plan"),
        "harness.sharded.oracle_s": totals.total_s("harness.sharded.oracle"),
        "core.shard.tile_front_s": totals.total_s(*tiles),
        "core.shard.tile_alloc_s": totals.total_s(
            *totals.matching("core.shard.tile_alloc#")
        ),
        "core.shard.tile_calls": totals.calls(
            *totals.matching("core.shard.tile_")
        ),
        "harness.sharded.tile_skew": ratio(
            max(tile_compute, default=0.0) * len(tile_compute), sum(tile_compute)
        ),
        "harness.sharded.coordinate_self_s": totals.self_s(
            "harness.sharded.run.inline"
        ),
        "harness.sharded.inline_cycles_per_s": inline_rate,
        "harness.sharded.process_vs_inline_ratio": ratio(shard_rate, inline_rate),
        "harness.sharded.vs_object_ratio": ratio(shard_rate, object_rate),
        "harness.parallel.job_key_us": totals.mean("harness.parallel.job_key", 1e6),
        "harness.parallel.cache.lookup_us": totals.mean(
            "harness.parallel.cache.lookup", 1e6
        ),
        "harness.parallel.cache.store_us": totals.mean(
            "harness.parallel.cache.store", 1e6
        ),
        "harness.parallel.execute_job_s": execute_s,
        "harness.parallel.inline_jobs_per_s": path_rate(host, untraced, "inline"),
        "harness.parallel.pool_efficiency": ratio(execute_s / 2, cold_wall),
        "harness.resilient.pool_efficiency": ratio(execute_s / 2, resilient_wall),
        "harness.resilient.journal.record_ok_us": totals.mean(
            "harness.resilient.journal.record_ok", 1e6
        ),
        "serve.protocol.normalize_us": totals.mean("serve.protocol.normalize", 1e6),
        "serve.broker.submit_us": totals.mean("serve.broker.submit", 1e6),
        "serve.broker.result_wait_ms": totals.mean("serve.broker.result", 1e3),
        "serve.http_overhead_ms": ratio(1e3 * (client_s - broker_s), requests),
        "serve.client.submit_ms": totals.mean("serve.client.submit", 1e3),
        "serve.client.result_ms": totals.mean("serve.client.result", 1e3),
        "serve.cold_jobs_per_s": path_rate(host, untraced, "serve_cold"),
        "object_cycles_per_s": object_rate,
        "soa_cycles_per_s": soa_rate,
        "shard_cycles_per_s": shard_rate,
        "sweep_cold_jobs_per_s": path_rate(host, untraced, "classic"),
        "sweep_resilient_jobs_per_s": path_rate(host, untraced, "resilient"),
        "sweep_warm_jobs_per_s": path_rate(host, untraced, "warm"),
        "failed_share": ratio(workload.failed, workload.attempted),
        "record_mismatches": workload.mismatches,
        "perfbench.trace_overhead_ratio": ratio(
            sum(s.wall for s in traced), untraced_wall
        ),
        "perfbench.span_coverage": ratio(tracer.root_seconds(), traced_wall),
        # Per-layer times are raw host seconds: this is what to divide
        # them by before comparing runs from different moments.
        "perfbench.host_slowness": host.median_slowness(),
    }
    for architecture in ROUTER_CLASSES:
        computed[f"routers.{architecture}.allocate_self_s"] = totals.self_s(
            f"routers.{architecture}.allocate"
        )
    computed.update(workload.layer_counts())
    undeclared = sorted(set(computed) - set(values))
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {undeclared}")
    values.update(computed)
    return values
