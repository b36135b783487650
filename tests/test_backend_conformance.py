"""Cross-backend conformance grid: ``backend="soa"`` vs the reference.

The struct-of-arrays backend's contract is *bit-identity* on its
supported envelope, not statistical closeness: every cell of the
router x routing x traffic x scheduler grid must produce exactly the
same result record, packet accounting and scheduler telemetry as the
object-model run of the same config.  Outside the envelope the backend
must refuse loudly (``BackendUnsupportedError``) while leaving the
object backend's behaviour untouched — a fault-injected run falls back
to ``backend="object"`` and keeps its reference results.

Golden cells additionally pin absolute numbers for one cell per router
so that a *coordinated* drift of both backends (e.g. a shared layout
bug) cannot slip through the differential check.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import run_simulation
from repro.core.soa import BackendUnsupportedError, ensure_supported
from repro.core.types import NodeId
from repro.faults import Component, ComponentFault, FaultEvent, FaultSchedule
from repro.harness.export import result_record

ROUTERS = ("roco", "generic")
ROUTINGS = ("xy", "xy-yx", "adaptive")
TRAFFICS = ("uniform", "transpose", "self_similar")
SCHEDULERS = (False, True)  # full_sweep

GRID = sorted(itertools.product(ROUTERS, ROUTINGS, TRAFFICS, SCHEDULERS))


def grid_config(router: str, routing: str, traffic: str, **overrides):
    params = {
        "width": 4,
        "height": 4,
        "router": router,
        "routing": routing,
        "traffic": traffic,
        "injection_rate": 0.25,
        "warmup_packets": 30,
        "measure_packets": 150,
        "max_cycles": 20_000,
        "seed": 11,
    }
    params.update(overrides)
    return SimulationConfig(**params)


def full_record(result) -> dict:
    """The exported record plus every field it deliberately omits.

    Packet accounting and scheduler telemetry are not part of the
    exported schema, but the backends must agree on them all the same —
    the SoA engine replicates the counters, not just the headline
    metrics.
    """
    record = result_record(result)
    record.update(
        generated_packets=result.generated_packets,
        total_delivered=result.total_delivered,
        total_dropped=result.total_dropped,
        drops_by_reason=sorted(
            (reason.value, count)
            for reason, count in result.drops_by_reason.items()
        ),
        scheduler=(
            result.scheduler.cycles,
            result.scheduler.router_steps,
            result.scheduler.router_slots,
            result.scheduler.wakeups,
            result.scheduler.sleeps,
            result.scheduler.full_sweep,
        ),
    )
    return record


class TestConformanceGrid:
    @pytest.mark.parametrize(
        "router,routing,traffic,full_sweep",
        GRID,
        ids=[f"{r}-{m}-{t}-{'sweep' if fs else 'active'}" for r, m, t, fs in GRID],
    )
    def test_cell_is_bit_identical(self, router, routing, traffic, full_sweep):
        config = grid_config(router, routing, traffic)
        reference = run_simulation(config, full_sweep=full_sweep)
        fast = run_simulation(
            replace(config, backend="soa"), full_sweep=full_sweep
        )
        assert full_record(fast) == full_record(reference)

    #: The grid above is 4x4 throughout.  A rectangular mesh tells x
    #: from y in the layout's direction-class tables, and at 16x16 every
    #: class serves dozens of destinations per router.
    LARGER = (
        (7, 5, "xy-yx", 0.25, 220),
        (16, 16, "adaptive", 0.10, 400),
    )

    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize(
        "width,height,routing,rate,packets",
        LARGER,
        ids=[f"{w}x{h}-{m}" for w, h, m, _, _ in LARGER],
    )
    def test_larger_mesh_is_bit_identical(
        self, router, width, height, routing, rate, packets
    ):
        config = grid_config(
            router,
            routing,
            "uniform",
            width=width,
            height=height,
            injection_rate=rate,
            measure_packets=packets,
        )
        reference = run_simulation(config)
        fast = run_simulation(replace(config, backend="soa"))
        assert full_record(fast) == full_record(reference)


#: Absolute pins for one cell per router (active scheduler), computed
#: from the object-model reference.  A shared-drift regression moves
#: these even when the differential grid stays green.
GOLDEN_KEYS = (
    "average_latency",
    "average_hops",
    "delivered_packets",
    "cycles",
    "total_delivered",
    "total_dropped",
)
GOLDEN = {
    ("roco", "xy", "uniform"): {
        "average_latency": 12.386666666666667,
        "average_hops": 2.533333333333333,
        "delivered_packets": 150,
        "cycles": 205,
        "total_delivered": 180,
        "total_dropped": 0,
    },
    ("generic", "adaptive", "transpose"): {
        "average_latency": 19.026666666666667,
        "average_hops": 3.1133333333333333,
        "delivered_packets": 150,
        "cycles": 231,
        "total_delivered": 180,
        "total_dropped": 0,
    },
}


class TestGoldenCells:
    @pytest.mark.parametrize("cell", sorted(GOLDEN), ids="-".join)
    def test_golden_stats(self, cell):
        router, routing, traffic = cell
        config = replace(grid_config(router, routing, traffic), backend="soa")
        record = full_record(run_simulation(config))
        golden = GOLDEN[cell]
        assert {key: record[key] for key in GOLDEN_KEYS} == golden


class TestEnvelopeRejection:
    """Outside the envelope: a clean, typed error — never a wrong answer."""

    def fault(self):
        return ComponentFault(node=NodeId(1, 1), component=Component.SA)

    def test_static_faults_raise(self):
        config = replace(grid_config("roco", "xy", "uniform"), backend="soa")
        with pytest.raises(BackendUnsupportedError, match="use backend='object'"):
            run_simulation(config, faults=[self.fault()])

    def test_fault_schedule_raises(self):
        config = replace(grid_config("roco", "xy", "uniform"), backend="soa")
        schedule = FaultSchedule([FaultEvent(cycle=10, fault=self.fault())])
        with pytest.raises(BackendUnsupportedError, match="fault schedule"):
            run_simulation(config, schedule=schedule)

    def test_empty_fault_inputs_are_fine(self):
        config = replace(grid_config("roco", "xy", "uniform"), backend="soa")
        result = run_simulation(config, faults=[], schedule=FaultSchedule([]))
        assert result.delivered_packets > 0

    def test_audit_raises_and_points_at_the_bridge(self):
        config = replace(
            grid_config("roco", "xy", "uniform"), backend="soa", audit=True
        )
        with pytest.raises(BackendUnsupportedError, match="SoAState"):
            run_simulation(config)

    def test_unvectorized_router_raises(self):
        config = replace(
            grid_config("roco", "xy", "uniform"),
            router="path_sensitive",
            backend="soa",
        )
        with pytest.raises(BackendUnsupportedError, match="path_sensitive"):
            run_simulation(config)

    def test_error_carries_feature_tag(self):
        with pytest.raises(BackendUnsupportedError) as excinfo:
            ensure_supported(
                grid_config("roco", "xy", "uniform"), faults=[self.fault()]
            )
        assert excinfo.value.feature == "static fault injection"

    def test_object_backend_unaffected_by_faults(self):
        """The fallback path: same faulty config, object backend, works —
        and produces the same results whether or not the SoA cell ever
        ran (the backends share no mutable state)."""
        config = grid_config("roco", "xy", "uniform")
        faults = [self.fault()]
        before = run_simulation(config, faults=faults)
        with pytest.raises(BackendUnsupportedError):
            run_simulation(replace(config, backend="soa"), faults=faults)
        after = run_simulation(config, faults=faults)
        assert full_record(after) == full_record(before)


class TestDispatchAndCacheKey:
    def test_config_validates_backend_name(self):
        with pytest.raises(ValueError):
            grid_config("roco", "xy", "uniform", backend="vector")

    def test_cache_key_distinguishes_backends(self):
        config = grid_config("roco", "xy", "uniform")
        obj = config.to_payload()
        soa = replace(config, backend="soa").to_payload()
        assert obj != soa
        assert soa["backend"] == "soa"

    def test_cache_key_stable_for_object_backend(self):
        """Pre-SoA cache entries stay valid: the default backend adds no
        key, so object-backend payloads hash exactly as before."""
        assert "backend" not in grid_config("roco", "xy", "uniform").to_payload()
