"""Tests for the parameter-sweep utility."""

import pytest

from repro.harness.parallel import ParallelExecutor
from repro.harness.sweeps import Sweep, pivot

BASE = {
    "width": 3,
    "height": 3,
    "warmup_packets": 10,
    "measure_packets": 60,
    "injection_rate": 0.08,
}


class TestSweepConstruction:
    def test_size(self):
        sweep = Sweep(axes={"router": ["generic", "roco"], "seed": [1, 2, 3]})
        assert sweep.size == 6

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            Sweep(axes={"voltage": [1.0]})
        with pytest.raises(ValueError, match="injection_rte"):
            Sweep(axes={"injection_rte": [0.1]})

    def test_any_config_field_is_an_axis(self):
        sweep = Sweep(
            axes={"topology": ["mesh", "torus"], "backend": ["object", "soa"]},
            base={"router": "generic"},
        )
        assert {(c.topology, c.backend) for c in sweep.configurations()} == {
            ("mesh", "object"),
            ("mesh", "soa"),
            ("torus", "object"),
            ("torus", "soa"),
        }

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            Sweep(axes={})

    def test_configurations_cover_grid(self):
        sweep = Sweep(
            axes={"router": ["generic", "roco"], "injection_rate": [0.05, 0.1]},
            base=BASE,
        )
        configs = list(sweep.configurations())
        assert len(configs) == 4
        combos = {(c.router, c.injection_rate) for c in configs}
        assert combos == {
            ("generic", 0.05),
            ("generic", 0.1),
            ("roco", 0.05),
            ("roco", 0.1),
        }

    def test_base_applied(self):
        sweep = Sweep(axes={"seed": [1]}, base=BASE)
        (config,) = sweep.configurations()
        assert config.width == 3
        assert config.measure_packets == 60


class TestSweepExecution:
    def test_run_returns_records(self):
        sweep = Sweep(axes={"router": ["generic", "roco"]}, base=BASE)
        records = sweep.run()
        assert len(records) == 2
        assert {r["router"] for r in records} == {"generic", "roco"}
        assert all(r["completion_probability"] == 1.0 for r in records)

    def test_progress_callback(self):
        calls = []
        sweep = Sweep(axes={"seed": [1, 2]}, base=BASE)
        executor = ParallelExecutor(
            progress=lambda done, total, result: calls.append((done, total))
        )
        sweep.run(executor)
        assert calls == [(1, 2), (2, 2)]


class TestPivot:
    RECORDS = [
        {"router": "a", "rate": 0.1, "lat": 10.0},
        {"router": "a", "rate": 0.2, "lat": 14.0},
        {"router": "b", "rate": 0.1, "lat": 8.0},
        {"router": "a", "rate": 0.1, "lat": 12.0},  # duplicate cell -> mean
    ]

    def test_pivot_shape(self):
        table = pivot(self.RECORDS, row="router", column="rate", value="lat")
        assert set(table) == {"a", "b"}
        assert table["a"][0.2] == 14.0

    def test_duplicate_cells_averaged(self):
        table = pivot(self.RECORDS, row="router", column="rate", value="lat")
        assert table["a"][0.1] == pytest.approx(11.0)

