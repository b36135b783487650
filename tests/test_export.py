"""Tests for result serialization (JSON/CSV export)."""

import csv
import json

import pytest

from repro.harness.export import (
    RESULT_FIELDS,
    result_record,
    write_csv,
    write_json,
)

from .conftest import run_small


@pytest.fixture(scope="module")
def results():
    return [
        run_small(router="roco", measure_packets=100),
        run_small(router="generic", measure_packets=100),
    ]


class TestRecord:
    def test_contains_all_fields(self, results):
        record = result_record(results[0])
        assert set(record) == set(RESULT_FIELDS)

    def test_values_roundtrip_config(self, results):
        record = result_record(results[0])
        assert record["router"] == "roco"
        assert record["routing"] == "xy"
        assert record["width"] == 4
        assert record["num_faults"] == 0

    def test_metrics_match_result(self, results):
        record = result_record(results[0])
        assert record["average_latency"] == results[0].average_latency
        assert record["pef"] == results[0].pef

    def test_record_is_json_serialisable(self, results):
        json.dumps(result_record(results[0]))


class TestJson:
    def test_write_and_read(self, results, tmp_path):
        path = write_json(results, tmp_path / "runs.json")
        loaded = json.loads(path.read_text())
        assert len(loaded) == 2
        assert {r["router"] for r in loaded} == {"roco", "generic"}

    def test_values_preserved(self, results, tmp_path):
        path = write_json(results, tmp_path / "runs.json")
        loaded = json.loads(path.read_text())
        assert loaded[0]["average_latency"] == pytest.approx(
            results[0].average_latency
        )


class TestCsv:
    def test_write_csv(self, results, tmp_path):
        path = write_csv(results, tmp_path / "runs.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["router"] == "roco"
        assert float(rows[1]["average_latency"]) == pytest.approx(
            results[1].average_latency
        )

    def test_header_order(self, results, tmp_path):
        path = write_csv(results, tmp_path / "runs.csv")
        header = path.read_text().splitlines()[0]
        assert header == ",".join(RESULT_FIELDS)
