"""Tests for the flit-level flight recorder."""

import pytest

from repro.core.simulator import Simulator
from repro.core.types import NodeId, Packet, make_packet_flits
from repro.instrumentation import EventKind, FlightRecorder

from .conftest import small_config


def _head_flit(pid: int = 0):
    packet = Packet(
        pid=pid, src=NodeId(0, 0), dest=NodeId(2, 0), size=4, created_cycle=0
    )
    return make_packet_flits(packet)[0]


def events_of(recorder: FlightRecorder, pid: int) -> list:
    return [event for event in recorder.events if event.packet_id == pid]


def journey(recorder: FlightRecorder, pid: int) -> list[NodeId]:
    """The routers the packet's head flit visited, in order."""
    path: list[NodeId] = []
    for event in events_of(recorder, pid):
        if event.flit_seq != 0:
            continue
        if event.kind in (EventKind.INJECT, EventKind.BUFFER, EventKind.EJECT):
            if not path or path[-1] != event.node:
                path.append(event.node)
    return path


def hop_timings(recorder: FlightRecorder, pid: int) -> list[tuple[NodeId, int, int]]:
    """``(node, arrived, departed)`` of the head flit at each visited router."""
    arrivals: dict[NodeId, int] = {}
    timings = []
    for event in events_of(recorder, pid):
        if event.flit_seq != 0:
            continue
        if event.kind in (EventKind.INJECT, EventKind.BUFFER):
            arrivals.setdefault(event.node, event.cycle)
        elif event.kind in (EventKind.TRAVERSE, EventKind.EJECT):
            if event.node in arrivals:
                timings.append((event.node, arrivals.pop(event.node), event.cycle))
    return timings


@pytest.fixture(scope="module")
def traced_run():
    sim = Simulator(small_config(injection_rate=0.08, measure_packets=120))
    recorder = FlightRecorder()
    sim.network.trace = recorder
    result = sim.run()
    return sim, recorder, result


class TestEventStream:
    def test_events_collected(self, traced_run):
        _, recorder, _ = traced_run
        assert recorder.events
        kinds = {e.kind for e in recorder.events}
        assert kinds == {
            EventKind.INJECT,
            EventKind.BUFFER,
            EventKind.TRAVERSE,
            EventKind.EJECT,
        }

    def test_every_delivered_flit_ejects(self, traced_run):
        sim, recorder, result = traced_run
        ejects = [e for e in recorder.events if e.kind is EventKind.EJECT]
        assert len(ejects) == sim.network.stats.delivered_flits + (
            0  # warm-up flits are traced too; account below
        ) or len(ejects) >= result.delivered_packets * 4

    def test_event_cycles_monotone_per_flit(self, traced_run):
        _, recorder, _ = traced_run
        pid = recorder.events[0].packet_id
        per_flit = {}
        for event in events_of(recorder, pid):
            per_flit.setdefault(event.flit_seq, []).append(event.cycle)
        for seq, cycles in per_flit.items():
            assert cycles == sorted(cycles), seq

    def test_max_events_cap(self):
        recorder = FlightRecorder(max_events=3)
        sim = Simulator(small_config(measure_packets=60))
        sim.network.trace = recorder
        sim.run()
        assert len(recorder.events) == 3


class TestJourneys:
    def test_journey_follows_a_minimal_path(self, traced_run):
        _, recorder, _ = traced_run
        pid = recorder.events[0].packet_id
        events = events_of(recorder, pid)
        src = events[0].node
        path = journey(recorder, pid)
        assert path[0] == src
        # Each step moves to a mesh neighbour.
        for a, b in zip(path, path[1:]):
            assert abs(a.x - b.x) + abs(a.y - b.y) == 1

    def test_journey_length_is_hops_plus_one(self, traced_run):
        _, recorder, _ = traced_run
        pid = recorder.events[0].packet_id
        events = events_of(recorder, pid)
        dest = [e for e in events if e.kind is EventKind.EJECT][0].node
        src = events[0].node
        hops = abs(src.x - dest.x) + abs(src.y - dest.y)
        assert len(journey(recorder, pid)) == hops + 1

    def test_hop_timings_positive_dwell(self, traced_run):
        _, recorder, _ = traced_run
        pid = recorder.events[0].packet_id
        timings = hop_timings(recorder, pid)
        assert timings
        for _, arrived, departed in timings:
            assert departed - arrived >= 1

    def test_format_journey(self, traced_run):
        _, recorder, _ = traced_run
        pid = recorder.events[0].packet_id
        text = recorder.format_journey(pid)
        assert f"packet {pid}" in text
        assert "inject" in text and "eject" in text
        assert "truncated" not in text  # uncapped run: no caveat


class TestRevisitedNodes:
    """A detoured head can visit the same router twice; reconstruction
    must keep both visits instead of collapsing or mis-pairing them."""

    A, B = NodeId(0, 0), NodeId(1, 0)

    def _record_loop(self) -> FlightRecorder:
        recorder = FlightRecorder()
        head = _head_flit()
        recorder.record(0, EventKind.INJECT, head, self.A)
        recorder.record(0, EventKind.BUFFER, head, self.A)
        recorder.record(2, EventKind.TRAVERSE, head, self.A)
        recorder.record(4, EventKind.BUFFER, head, self.B)
        recorder.record(5, EventKind.TRAVERSE, head, self.B)
        recorder.record(7, EventKind.BUFFER, head, self.A)
        recorder.record(9, EventKind.EJECT, head, self.A)
        return recorder

    def test_journey_keeps_both_visits(self):
        assert journey(self._record_loop(), 0) == [self.A, self.B, self.A]

    def test_hop_timings_pair_each_visit_separately(self):
        timings = hop_timings(self._record_loop(), 0)
        assert timings == [(self.A, 0, 2), (self.B, 4, 5), (self.A, 7, 9)]
        assert all(departed - arrived >= 1 for _, arrived, departed in timings)


class TestTruncationIsExplicit:
    def test_dropped_events_counted(self):
        recorder = FlightRecorder(max_events=2)
        head = _head_flit()
        for cycle in range(5):
            recorder.record(cycle, EventKind.BUFFER, head, NodeId(0, 0))
        assert len(recorder.events) == 2
        assert recorder.dropped_events == 3
        assert recorder.truncated is True

    def test_untruncated_recorder_reports_clean(self):
        recorder = FlightRecorder(max_events=10)
        recorder.record(0, EventKind.BUFFER, _head_flit(), NodeId(0, 0))
        assert recorder.truncated is False
        assert recorder.dropped_events == 0

    def test_format_journey_carries_truncation_note(self):
        recorder = FlightRecorder(max_events=2)
        head = _head_flit()
        for cycle in range(6):
            recorder.record(cycle, EventKind.BUFFER, head, NodeId(0, 0))
        text = recorder.format_journey(0)
        assert "trace truncated: 4 event(s) dropped" in text
        assert "journey may be incomplete" in text

    def test_simulated_capped_run_flags_truncation(self):
        recorder = FlightRecorder(max_events=3)
        sim = Simulator(small_config(measure_packets=60))
        sim.network.trace = recorder
        sim.run()
        assert recorder.truncated
        assert recorder.dropped_events > 0


class TestOverheadFreeWhenDetached:
    def test_untraced_run_records_nothing(self):
        sim = Simulator(small_config(measure_packets=60))
        assert sim.network.trace is None
        sim.run()  # must simply not crash and not trace
