"""Unit tests for inter-router channels."""

import pytest

from repro.core.channel import LINK_DELAY, Channel


class TestChannel:
    def test_delivery_after_delay(self):
        ch = Channel()
        ch.send("flit", cycle=10)
        assert ch.deliver(10 + LINK_DELAY - 1) == []
        assert ch.deliver(10 + LINK_DELAY) == ["flit"]

    def test_single_lane_bandwidth_enforced(self):
        ch = Channel()
        ch.send("a", cycle=3)
        with pytest.raises(RuntimeError):
            ch.send("b", cycle=3)

    def test_consecutive_cycles_allowed(self):
        ch = Channel()
        ch.send("a", cycle=3)
        ch.send("b", cycle=4)
        assert ch.deliver(3 + LINK_DELAY) == ["a"]
        assert ch.deliver(4 + LINK_DELAY) == ["b"]

    def test_deliver_is_idempotent_after_drain(self):
        ch = Channel()
        ch.send("x", cycle=0)
        assert ch.deliver(LINK_DELAY) == ["x"]
        assert ch.deliver(LINK_DELAY) == []

    def test_busy_and_len(self):
        ch = Channel()
        assert not ch.busy and len(ch) == 0
        ch.send("x", cycle=0)
        assert ch.busy and len(ch) == 1

    def test_custom_delay(self):
        ch = Channel(delay=5)
        ch.send("x", cycle=0)
        assert ch.deliver(4) == []
        assert ch.deliver(5) == ["x"]

    def test_late_delivery_flushes_everything_due(self):
        ch = Channel()
        ch.send("a", cycle=0)
        ch.send("b", cycle=1)
        assert ch.deliver(100) == ["a", "b"]

    def test_pending_lists_the_wire_in_send_order(self):
        ch = Channel()
        ch.send("a", cycle=0)
        ch.send("b", cycle=1)
        assert ch.pending() == ["a", "b"]
        ch.deliver(LINK_DELAY)
        assert ch.pending() == ["b"]

    def test_sends_counts_every_launch(self):
        ch = Channel()
        for cycle in range(3):
            ch.send(cycle, cycle=cycle)
        ch.deliver(100)
        assert ch.sends == 3 and len(ch) == 0
