"""The SoA backend's envelope and absolute golden cells.

Bit-identity with the object engine on the supported envelope is
tests/test_engines_agree.py's business (its ``soa`` rows).  Outside the
envelope the backend must refuse loudly (``BackendUnsupportedError``)
while leaving the object backend's behaviour untouched — a fault-injected
run falls back to ``backend="object"`` and keeps its reference results.

Golden cells pin absolute numbers for one cell per router so that a
*coordinated* drift of both backends (e.g. a shared layout bug) cannot
slip through the differential check.  Its cache keys are
tests/test_scenario_codec.py's pinned digests.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.simulator import run_simulation
from repro.core.soa import BackendUnsupportedError, ensure_supported
from repro.core.types import NodeId
from repro.faults import Component, ComponentFault, FaultEvent, FaultSchedule
from repro.harness.parallel import SimJob

from .test_engines_agree import conformance, outcome

#: roco / xy / uniform, one of the ``conformance-*`` cells.
CELL = conformance()

#: Absolute pins for one cell per router (active scheduler), computed
#: from the object-model reference.  A shared-drift regression moves
#: these even when the differential oracle stays green.
GOLDEN_KEYS = ("average_latency", "average_hops", "delivered_packets", "cycles",
               "total_delivered", "total_dropped")
GOLDEN = {
    ("roco", "xy", "uniform"): (12.386666666666667, 2.533333333333333, 150, 205,
                                180, 0),
    ("generic", "adaptive", "transpose"): (19.026666666666667, 3.1133333333333333,
                                           150, 231, 180, 0),
}


class TestGoldenCells:
    @pytest.mark.parametrize("cell", sorted(GOLDEN), ids="-".join)
    def test_golden_stats(self, cell):
        router, routing, traffic = cell
        config = conformance(
            router=router, routing=routing, traffic=traffic, backend="soa"
        )
        record = outcome(SimJob.of(config))
        assert tuple(record[key] for key in GOLDEN_KEYS) == GOLDEN[cell]


class TestEnvelopeRejection:
    """Outside the envelope: a clean, typed error — never a wrong answer."""

    def fault(self):
        return ComponentFault(node=NodeId(1, 1), component=Component.SA)

    def test_static_faults_raise(self):
        config = replace(CELL, backend="soa")
        with pytest.raises(BackendUnsupportedError, match="use backend='object'"):
            run_simulation(config, faults=[self.fault()])

    def test_fault_schedule_raises(self):
        config = replace(CELL, backend="soa")
        schedule = FaultSchedule([FaultEvent(cycle=10, fault=self.fault())])
        with pytest.raises(BackendUnsupportedError, match="fault schedule"):
            run_simulation(config, schedule=schedule)

    def test_empty_fault_inputs_are_fine(self):
        config = replace(CELL, backend="soa")
        result = run_simulation(config, faults=[], schedule=FaultSchedule([]))
        assert result.delivered_packets > 0

    def test_unvectorized_router_raises(self):
        config = replace(CELL, router="path_sensitive", backend="soa")
        with pytest.raises(BackendUnsupportedError, match="path_sensitive"):
            run_simulation(config)

    def test_error_carries_feature_tag(self):
        with pytest.raises(BackendUnsupportedError) as excinfo:
            ensure_supported(CELL, faults=[self.fault()])
        assert excinfo.value.feature == "static fault injection"

    def test_object_backend_unaffected_by_faults(self):
        """The fallback path: same faulty config, object backend, works —
        and produces the same results whether or not the SoA cell ever
        ran (the backends share no mutable state)."""
        faults = [self.fault()]
        before = outcome(SimJob.of(CELL, faults))
        with pytest.raises(BackendUnsupportedError):
            run_simulation(replace(CELL, backend="soa"), faults=faults)
        assert outcome(SimJob.of(CELL, faults)) == before
