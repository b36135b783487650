"""One differential oracle: every engine reports what the reference does.

A row (an :data:`ENGINES` key, ``/sweep`` for the full-sweep scheduler)
runs a job only inside its own envelope.  ``object`` must equal the
full-sweep reference, scheduler counters aside, stepping no more
routers; every other row the object engine on its own scheduler,
counters included; every record must be ``conserved``.
``test_named_cell`` replays what hand-picked grids used to check, on the
rows each ran, and pins how the cell's runs end, so a regression shared
by every engine fails it too; ``test_generated_case`` draws every config
field, with and without faults.  A failure prints the row, its first
differing fields and its job's payload: saved to a file,
``python -m repro --replay FILE`` runs it (on the active scheduler; a
``/sweep`` row's reference is ``run_simulation(..., full_sweep=True)``).
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from functools import partial
from itertools import product

import pytest
from hypothesis import HealthCheck, event, given, reject, settings
from hypothesis import strategies as st

from repro.core.config import RouterConfig, SimulationConfig
from repro.core.network import Network
from repro.core.simulator import DeadlockError, Simulator, run_simulation
from repro.core.soa import BackendUnsupportedError, ensure_supported
from repro.core.types import NodeId, RoutingMode, grid_nodes
from repro.faults import Component, ComponentFault, FaultSchedule, random_faults
from repro.faults.runtime import RuntimeFaultEngine
from repro.harness.export import result_record
from repro.harness.parallel import SimJob
from repro.harness.sharded import ShardPlan, ensure_sharded_supported
from repro.routers.base import BaseRouter
from repro.routers.generic import GenericRouter
from repro.routers.path_sensitive import PathSensitiveRouter
from repro.routers.roco.router import RoCoRouter
from repro.routers.roco.path_set import COLUMN, ROW
from repro.traffic import TRAFFIC_CLASSES

from .conftest import small_config
from .test_run_contract import BASE, DRAIN_CELLS, TRUNCATED
from .test_runtime_faults import center_kill
from .test_sharded import grid_config

#: Generated examples per run of the suite.
EXAMPLES = 20

ACCOUNTING = ("generated_packets", "total_delivered", "total_dropped",
              "drops_by_reason", "conserved")
COUNTERS = ("cycles", "router_steps", "router_slots", "wakeups", "sleeps")
CENSUS = ("outstanding", "per_node", "oldest_age")

TILINGS = {f"tiles-{w}x{h}": {"shards": (w, h)} for w, h in ((2, 2), (2, 1), (1, 2))}
#: Engine -> the config fields that select it.
ENGINES = {"object": {}, "audited": {"audit": True}, "soa": {"backend": "soa"},
           **TILINGS}


def row_job(row: str, job: SimJob) -> SimJob:
    """The job a row runs; ``BackendUnsupportedError`` outside its envelope."""
    config = replace(job.config, **ENGINES[row.removesuffix("/sweep")])
    if config.backend == "soa":
        ensure_supported(config, job.faults, job.schedule)
    if config.shards:
        ensure_sharded_supported(config, faults=job.faults, schedule=job.schedule)
        ShardPlan.plan(config, config.shards)
    return replace(job, config=config)


def outcome(job: SimJob, full_sweep: bool = False) -> dict:
    """A run's record and packet accounting, or the stall it raised."""
    config = job.config
    run = dict(faults=list(job.faults), schedule=job.schedule, full_sweep=full_sweep)
    object_engine = config.backend == "object" and not config.shards
    simulator = Simulator(config, **run) if object_engine else None
    try:
        result = simulator.run() if simulator else run_simulation(config, **run)
        found = {**result_record(result),
                 **{key: getattr(result, key) for key in ACCOUNTING},
                 **{f"scheduler.{key}": getattr(result.scheduler, key)
                    for key in COUNTERS}}
    except DeadlockError as error:
        found = {"raised": type(error).__name__,
                 "message": str(error).partition(": ")[0],
                 **{key: getattr(error.census, key) for key in CENSUS}}
    assert not config.audit or simulator.audit.cycles_audited, "no cycle audited"
    if simulator and "raised" not in found:
        # Every step is booked on its router, a blocked nap's included.
        steps = sum(r.steps_taken for r in simulator.network.routers.values())
        assert steps == found["scheduler.router_steps"], "router steps lost"
    return found


def agree(job: SimJob, rows, found: dict) -> dict:
    """Run ``job`` on ``rows`` and on their references into ``found`` (row
    -> outcome; a row already there is not run again); compare."""

    def fail(row: str, lines: list[str]):
        payload = json.dumps(row_job(row, job).to_payload())
        pytest.fail("\n".join([f"row {row!r}:", *lines[:6],
                               "job (python -m repro --replay FILE):", payload]))

    def run(row: str) -> dict:
        if row not in found:
            try:
                found[row] = outcome(row_job(row, job), row.endswith("/sweep"))
            except Exception as error:
                fail(row, [f"  raised {error!r}"])
            if not found[row].get("conserved", True):
                fail(row, ["  packets leaked"])
        return found[row]

    for row in rows:
        sweep = row == "object" or row.endswith("/sweep")
        mine, theirs = run(row), run("object/sweep" if sweep else "object")
        skip = ("scheduler.",) if row == "object" else ()
        diff = [f"  {key}: {mine.get(key)!r}, reference {theirs.get(key)!r}"
                for key in sorted(mine.keys() | theirs.keys())
                if not key.startswith(skip) and mine.get(key) != theirs.get(key)]
        if diff:
            fail(row, diff)
        if row == "object" and "raised" not in mine:
            steps = mine["scheduler.router_steps"], theirs["scheduler.router_steps"]
            assert steps[0] <= steps[1], f"active stepped more routers: {steps}"
    return found


# ----------------------------------------------------------------------
# Named cells: what the hand-picked grids checked, one id per cell and row
# ----------------------------------------------------------------------

#: id -> (job, the rows its grid ran, how its runs end).
CELLS: dict[str, tuple[SimJob, list[str], str]] = {}
#: id -> the outcomes its rows and their references gave, each run once.
FOUND: dict[str, dict] = {}


def cell(name: str, rows: str, config, *faults, schedule=None, ends=None):
    """``ends``: ``drained`` (every packet delivered), ``lossy`` (a record
    short of packets) or ``stalled`` (a ``DeadlockError``); by default a
    faulty cell is lossy and a healthy one drains."""
    ends = ends or ("lossy" if faults or schedule else "drained")
    CELLS[name] = SimJob.of(config, faults, schedule), rows.split(), ends


def fault(x, y, component, module=ROW, vc_position=0) -> ComponentFault:
    return ComponentFault(NodeId(x, y), component, module, vc_position)


conformance = partial(small_config, injection_rate=0.25, seed=11)
scheduler = partial(small_config, seed=3, measure_packets=120, fault_drop_timeout=100,
                    drain_timeout=400)
ROUTINGS, NODES = ("xy", "xy-yx", "adaptive"), grid_nodes(4, 4)
BOTH, ALL = ("roco", "generic"), ("roco", "generic", "path_sensitive")
VA, XBAR = Component.VA, Component.CROSSBAR

for r, m, t in product(BOTH, ROUTINGS, ("uniform", "transpose", "self_similar")):
    cell(f"conformance-{r}-{m}-{t}", "soa soa/sweep",
         conformance(router=r, routing=m, traffic=t))
for r, (w, h, m, rate, n) in product(BOTH, [(7, 5, "xy-yx", 0.25, 220),
                                            (16, 16, "adaptive", 0.10, 400)]):
    cell(f"larger-{w}x{h}-{m}-{r}", "soa", conformance(
        router=r, routing=m, width=w, height=h, injection_rate=rate,
        measure_packets=n))
for r, m, t in product(ALL, ROUTINGS, ("uniform", "transpose")):
    cell(f"scheduler-{r}-{m}-{t}", "object", scheduler(router=r, routing=m, traffic=t))
for r, (kind, n, seed) in product(ALL, [("critical", 2, 21), ("noncritical", 3, 22)]):
    cell(f"faults-{r}-{kind}", "object", scheduler(router=r, seed=seed),
         *random_faults(NODES, n, random.Random(seed), kind == "critical"),
         ends="drained" if (r, kind) == ("roco", "noncritical") else None)
for r in ALL:
    cell(f"midrun-{r}", "object", small_config(router=r), schedule=center_kill(120))
for seed, rate in ((11, 0.05), (12, 0.2), (13, 0.3)):
    cell(f"seed-{seed}-{rate}", "object", scheduler(seed=seed, injection_rate=rate))
cell("targeted-roco-recovery", "object", scheduler(seed=5), fault(1, 1, XBAR),
     fault(2, 2, Component.RC, COLUMN), fault(2, 1, Component.SA),
     fault(1, 2, Component.BUFFER, COLUMN, vc_position=2))
for m in ("xy", "adaptive"):
    cell(f"module-kill-{m}", "object", scheduler(routing=m, seed=17),
         fault(1, 1, XBAR, COLUMN), fault(2, 2, VA))
cell("bypassed-rc", "object", scheduler(traffic="transpose", seed=9),
     fault(1, 1, Component.RC), ends="drained")
cell("drain-break-dead-column", "object",
     scheduler(router="generic", traffic="transpose", seed=23, drain_timeout=300),
     *[fault(2, y, XBAR) for y in range(4)])
cell("transient-kill", "object", small_config(), schedule=center_kill(120, 150))
cell("sampled-schedule", "object",
     small_config(injection_rate=0.08, warmup_packets=10, measure_packets=80, seed=1),
     schedule=FaultSchedule.sampled(NODES, count=3, seed=1, mtbf=60.0,
                                    duration=120, start_cycle=50))
for r in BOTH:
    cell(f"tiles-8x8-{r}", "tiles-2x2", grid_config(router=r))
for n, r in ((4, "roco"), (4, "generic"), (8, "generic")):
    cell(f"tiles-1x2-{n}x{n}-{r}", "tiles-1x2", grid_config(
        width=n, height=n, router=r, warmup_packets=20, measure_packets=80))
for n, r, m in ((8, "roco", "xy-yx"), (8, "roco", "adaptive"), (4, "roco", "xy-yx"),
                (4, "generic", "xy-yx")):
    cell(f"tiles-{n}x{n}-{r}-{m}", "tiles-2x2",
         grid_config(width=n, height=n, router=r, routing=m))
cell("tiles-transpose", "tiles-2x1",
     grid_config(traffic="transpose", injection_rate=0.1))
# A worm straddling a tile cut is met once by the drain census.
cell("tiles-census-across-a-cut", "tiles-2x2", SimulationConfig(
    width=4, height=4, router="generic", injection_rate=0.3,
    router_config=RouterConfig.for_architecture("generic", buffer_depth=1),
    drain_timeout=0, warmup_packets=5, measure_packets=30, seed=2), ends="stalled")
for name, (overrides, _) in DRAIN_CELLS.items():
    cell(f"drain-{name}", "soa tiles-2x2", replace(BASE, drain_timeout=0, **overrides),
         ends="stalled")
for n in (1, 40, 90):
    cell(f"max-cycles-{n}", "soa tiles-2x2", replace(TRUNCATED, max_cycles=n),
         ends="lossy")
cell("audit-clean", "audited", small_config(measure_packets=80, warmup_packets=20))
for (r, m), rate, n in product([("roco", "xy-yx"), ("generic", "xy")], (0.05, 0.2),
                               (0, 2)):
    cell(f"audit-{r}-{m}-{rate}-{n}", "audited audited/sweep",
         small_config(router=r, routing=m, injection_rate=rate, seed=1),
         schedule=FaultSchedule.sampled(
             NODES, count=n, seed=1, mtbf=150.0,
             router_config=RouterConfig.for_architecture(r)))
# A dropped worm's downstream VC grant must not pass to the worm queued
# behind it (packets longer than the buffer, not a multiple of it).
cell("audit-dropped-worm-grant", "audited", SimulationConfig(
    width=4, height=4, router="generic", injection_rate=0.1, flits_per_packet=5,
    router_config=RouterConfig.for_architecture("generic", vcs_per_port=1,
                                                buffer_depth=4),
    warmup_packets=0, measure_packets=80, seed=1), fault(1, 1, VA))
# The blocking reading: no drop timeout ends a hard-blocked wait before the
# faulty watchdog does, so routers holding only such heads nap for long
# stretches — through a fault healing under them, and through a cut run.
blocking = partial(scheduler, seed=21, measure_packets=60, drain_timeout=150,
                   fault_drop_timeout=100_000)
CRITICAL = random_faults(NODES, 2, random.Random(21), True)
for r in ("roco", "path_sensitive"):
    cell(f"blocking-{r}", "object audited", blocking(router=r), *CRITICAL)
for r in BOTH:
    cell(f"blocking-heal-{r}", "object audited",
         small_config(router=r, fault_drop_timeout=100_000),
         schedule=center_kill(120, 150))
cell("blocking-max-cycles", "object audited", blocking(router="generic",
                                                        max_cycles=200), *CRITICAL)

# Backpressure: worms longer than the buffer queue behind heads a
# mid-row critical fault hard-blocks under XY, so routers upstream hold
# worms with an output VC but no credit for the whole drop timeout and
# nap *starved*.  The worm a starved router waits on is dropped by a
# router before it in row-major order (``-drop-before``: its step this
# cycle was the nap's) or after it (``-drop-after``: it allocates this
# cycle, at its place).
def backpressure(router="generic", **overrides) -> SimulationConfig:
    return small_config(**{
        "router": router, "injection_rate": 0.15, "warmup_packets": 10,
        "measure_packets": 80, "flits_per_packet": 6, "fault_drop_timeout": 100,
        "drain_timeout": 400,
        "router_config": RouterConfig.for_architecture(router, buffer_depth=2),
        **overrides})


MID_ROW = fault(2, 1, XBAR)
for r in ALL:
    cell(f"backpressure-{r}", "object audited", backpressure(r, seed=2), MID_ROW)
cell("backpressure-drop-before", "object audited", backpressure(seed=1), MID_ROW)
cell("backpressure-drop-after", "object audited", backpressure(seed=3), MID_ROW)
# The fault heals while routers starve-nap; buffer (virtual-queuing)
# faults hold an arrival two cycles, a nap's deadline; the run is cut
# while routers starve-nap.
cell("backpressure-heal", "object audited",
     backpressure(seed=1, fault_drop_timeout=100_000),
     schedule=FaultSchedule.at_cycle(60, [MID_ROW], 80))
cell("backpressure-hold", "object audited", backpressure("roco", seed=2),
     fault(1, 1, Component.BUFFER), fault(2, 1, Component.BUFFER, vc_position=1),
     fault(1, 2, Component.BUFFER, COLUMN, 2), fault(2, 2, Component.BUFFER, COLUMN, 4),
     ends="drained")
cell("backpressure-max-cycles", "object audited",
     backpressure(seed=2, fault_drop_timeout=100_000, max_cycles=200), MID_ROW)

# Light load: most router steps find one occupied VC, the lone path of
# ``allocate`` (``_allocate_lone``), which the full-sweep reference never
# takes.
lone = partial(small_config, injection_rate=0.02, warmup_packets=10,
               measure_packets=40, seed=5)
for r, m, (w, h, tiles) in product(ALL, ("xy", "adaptive"),
                                   [(4, 4, "tiles-2x2"), (5, 3, "tiles-2x1")]):
    rows = "object audited" if r == "path_sensitive" else f"object soa {tiles}"
    cell(f"lone-{r}-{m}-{w}x{h}", rows,
         lone(router=r, routing=m, width=w, height=h))
cell("lone-roco-sa-rc", "object audited", lone(),
     fault(1, 1, Component.SA), fault(2, 2, Component.RC, COLUMN), ends="drained")
cell("lone-roco-sequential", "object soa tiles-2x2", lone(
    router_config=RouterConfig.for_architecture("roco", mirror_allocation=False)))
cell("lone-roco-no-lookahead", "object soa tiles-2x2", lone(
    router_config=RouterConfig.for_architecture("roco", lookahead_routing=False)))

# Near saturation with two-flit buffers: about two router steps in five
# hold two or more occupied VCs, the one-walk body of ``allocate``, which
# the full-sweep reference never runs.


def multi(router="roco", **overrides) -> SimulationConfig:
    return small_config(
        router=router, injection_rate=0.35, warmup_packets=10, measure_packets=60,
        seed=4, router_config=RouterConfig.for_architecture(router, buffer_depth=2),
        **overrides)


for r, m, (w, h, tiles) in product(ALL, ("xy", "adaptive"),
                                   [(4, 4, "tiles-2x2"), (5, 3, "tiles-2x1")]):
    rows = "object audited" if r == "path_sensitive" else f"object soa {tiles}"
    cell(f"multi-{r}-{m}-{w}x{h}", rows, multi(r, routing=m, width=w, height=h))
cell("multi-roco-sa-rc", "object audited", multi(),
     fault(1, 1, Component.SA), fault(2, 2, Component.RC, COLUMN), ends="drained")


@pytest.mark.parametrize("cell, row", [
    pytest.param(name, row, id=f"{name}-{row}")
    for name, (_, rows, _) in CELLS.items() for row in rows])
def test_named_cell(cell, row):
    job, _, ends = CELLS[cell]
    found = agree(job, [row], FOUND.setdefault(cell, {}))[row]
    ended = "stalled" if "raised" in found else (
        "drained" if found["completion_probability"] == 1.0 else "lossy")
    assert ended == ends, f"{cell} {row}: expected {ends}"


def test_blocking_cells_nap(monkeypatch):
    """The blocking cells reach what they are named for: routers nap, one
    is napping when the transient fault heals, some at the cut; the
    full-sweep reference keeps no verdict and takes no nap."""
    napping_at: dict[str, int] = {}
    clear, settle = RuntimeFaultEngine.clear, Network.settle

    def spy(method, label):
        def wrapper(self, *args):
            network = getattr(self, "network", self)
            napping_at[label] = max(napping_at.get(label, 0), network._napping)
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(RuntimeFaultEngine, "clear", spy(clear, "clear"))
    monkeypatch.setattr(Network, "settle", spy(settle, "end"))
    for name, label in (("blocking-heal-roco", "clear"),
                        ("blocking-heal-generic", "clear"),
                        ("blocking-max-cycles", "end")):
        napping_at.clear()
        job = CELLS[name][0]
        Simulator(job.config, faults=list(job.faults), schedule=job.schedule).run()
        assert napping_at.get(label), f"{name}: no router napping at the {label}"
    napping_at.clear()
    sweep = Simulator(job.config, faults=list(job.faults), full_sweep=True)
    sweep.run()
    assert not napping_at["end"]
    assert all(vc.verdict is None for router in sweep.network.routers.values()
               for vc in router.all_vcs())


def test_backpressure_cells_nap(monkeypatch):
    """The backpressure cells reach what they are named for: routers nap
    starved, a drop in the allocate loop rouses a starved napper placed
    before or after the dropping router, a hold sets a nap's deadline,
    starved nappers are napping when the fault heals and at the cut; the
    full-sweep reference never naps."""
    seen: dict[str, int] = {}
    starving: set = set()  # routers whose current nap is a starved one
    allocating: list = [None]  # the row-major place of the router allocating
    nap, rouse, settle = BaseRouter.nap, BaseRouter.rouse, Network.settle
    clear = RuntimeFaultEngine.clear

    def count(label, n=1):
        seen[label] = seen.get(label, 0) + n

    def starved(router):
        return any(vc.queue and vc.out_vc is not None for vc in router.all_vcs())

    def napped(self, cycle):
        took = nap(self, cycle)
        starving.discard(self)
        if took and starved(self):
            starving.add(self)
            count("starved")
            if any(vc.queue and vc.out_vc is not None and vc.hold_until > cycle + 1
                   and vc.hold_until == self._nap_until for vc in self.all_vcs()):
                count("hold")
        return took

    def roused(self):
        # In the allocate loop only a drop rouses (a refund comes in the
        # front half), in the ``allocate`` of the dropping router.
        at = allocating[0]
        if self in starving and self._nap_until and at is not None:
            count("after" if self._index > at else "before")
        rouse(self)

    def placed(method):
        def allocate(self, cycle):
            allocating[0] = self._index
            try:
                method(self, cycle)
            finally:
                allocating[0] = None
        return allocate

    def starved_napping(method, label):
        def wrapper(self, *args):
            network = getattr(self, "network", self)
            count(label, sum(r._nap_until is not None and starved(r)
                             for r in network.routers.values()))
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(BaseRouter, "nap", napped)
    monkeypatch.setattr(BaseRouter, "rouse", roused)
    for cls in (GenericRouter, PathSensitiveRouter, RoCoRouter):
        monkeypatch.setattr(cls, "allocate", placed(cls.__dict__["allocate"]))
    monkeypatch.setattr(Network, "settle", starved_napping(settle, "end"))
    monkeypatch.setattr(RuntimeFaultEngine, "clear", starved_napping(clear, "clear"))
    wanted = {"backpressure-generic": "starved", "backpressure-roco": "starved",
              "backpressure-path_sensitive": "starved",
              "backpressure-drop-before": "before", "backpressure-drop-after": "after",
              "backpressure-heal": "clear", "backpressure-hold": "hold",
              "backpressure-max-cycles": "end"}
    for name, label in wanted.items():
        seen.clear()
        job = CELLS[name][0]
        Simulator(job.config, faults=list(job.faults), schedule=job.schedule).run()
        assert seen.get(label), f"{name}: no {label} event in {seen}"
    seen.clear()
    job = CELLS["backpressure-generic"][0]
    Simulator(job.config, faults=list(job.faults), full_sweep=True).run()
    assert not seen.get("starved") and not seen.get("end"), seen


def test_lone_cells_take_the_lone_path(monkeypatch):
    """Each router takes the lone path on its lone cell; the full-sweep
    reference never does (a booby-trapped ``_allocate_lone``)."""
    classes = (GenericRouter, PathSensitiveRouter, RoCoRouter)
    entered: dict[str, int] = {}

    def spy(method):
        def wrapper(self, *args):
            entered[self.architecture] = entered.get(self.architecture, 0) + 1
            return method(self, *args)
        return wrapper

    def trap(self, *args):
        raise AssertionError("the full sweep took the lone path")

    names = [f"lone-{r}-xy-4x4" for r in ALL] + ["lone-roco-sa-rc"]
    for cls in classes:
        monkeypatch.setattr(cls, "_allocate_lone", spy(cls._allocate_lone))
    for name in names:
        job = CELLS[name][0]
        Simulator(job.config, faults=list(job.faults)).run()
    assert sorted(entered) == sorted(ALL), entered
    for cls in classes:
        monkeypatch.setattr(cls, "_allocate_lone", trap)
    for name in names:
        job = CELLS[name][0]
        Simulator(job.config, faults=list(job.faults), full_sweep=True).run()


# ----------------------------------------------------------------------
# Generated cases
# ----------------------------------------------------------------------

#: Hypothesis draws a union's first branch and a range's low end most
#: often, and shrinks towards them: the busy case, then the corner (a
#: 2-wide mesh, a truncated run, a zero drain timeout); packet counts
#: shrink to a handful.
SIZES = st.integers(4, 8) | st.integers(2, 8)
FLAGS = st.sampled_from((True, False))


@st.composite
def cases(draw) -> tuple[SimJob, list[str]]:
    """A job, with every field drawn (the buffer depth on every case, a
    packet longer than it half the time, faults on half the cases), and
    the rows it may run beside ``object`` and ``audited``: ``soa``, on
    one scheduler, and one tiling, on the active one."""
    depth = draw(st.integers(1, 6))
    try:
        config = SimulationConfig(
            width=draw(SIZES), height=draw(SIZES),
            topology=draw(st.sampled_from(("mesh", "torus"))),
            router=draw(st.sampled_from(ALL)),
            routing=draw(st.sampled_from(tuple(RoutingMode))),
            traffic=draw(st.sampled_from(tuple(TRAFFIC_CLASSES))),
            injection_rate=draw(st.floats(0.05, 0.5)),
            flits_per_packet=draw(st.integers(depth + 1, 2 * depth + 1)
                                  | st.integers(1, 8)),
            router_config=RouterConfig(
                vcs_per_port=draw(st.just(3) | st.integers(1, 4)), buffer_depth=depth,
                flit_width_bits=draw(st.sampled_from((128, 64, 32))),
                mirror_allocation=draw(FLAGS), lookahead_routing=draw(FLAGS)),
            warmup_packets=draw(st.integers(0, 20)),
            measure_packets=draw(st.integers(1, 19) | st.integers(20, 80)),
            max_cycles=draw(st.just(2_000) | st.integers(1, 300)),
            fault_drop_timeout=draw(st.just(200) | st.integers(0, 200)),
            drain_timeout=draw(st.integers(100, 400) | st.integers(0, 3)),
            seed=draw(st.integers(0, 1_000)),
        )
    except ValueError:
        reject()  # a config that cannot run: SimulationConfig says which
    faults, schedule = (), None
    if draw(st.booleans()):
        schedule = FaultSchedule.sampled(
            grid_nodes(config.width, config.height), count=draw(st.integers(1, 3)),
            seed=draw(st.integers(0, 1_000)), critical=draw(FLAGS),
            mtbf=draw(st.sampled_from((30.0, 150.0))),
            duration=draw(st.none() | st.integers(20, 200)),
            router_config=config.router_config)
        if draw(st.booleans()):  # the same population, applied before wiring
            faults, schedule = [strike.fault for strike in schedule], None
    suffix = draw(st.sampled_from(("", "/sweep")))
    return SimJob.of(config, faults, schedule), [
        f"soa{suffix}", draw(st.sampled_from(tuple(TILINGS)))]


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(cases())
def test_generated_case(case):
    job, drawn = case
    rows = ["object", "audited"]
    for row in drawn:
        try:
            row_job(row, job)
        except BackendUnsupportedError:
            continue
        rows.append(row)
    for row in rows:
        event(f"row {row.split('-')[0].removesuffix('/sweep')}")
    agree(job, rows, {})
