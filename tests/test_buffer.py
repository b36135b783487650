"""Unit tests for virtual-channel buffers and credit accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.buffer import CREDIT_LATENCY, VirtualChannel
from repro.core.types import Direction, NodeId, Packet, make_packet_flits


def worm(size=4, pid=0):
    packet = Packet(
        pid=pid, src=NodeId(0, 0), dest=NodeId(1, 1), size=size, created_cycle=0
    )
    return make_packet_flits(packet)


class TestQueueBehaviour:
    def test_fifo_order(self):
        vc = VirtualChannel(0, 0, depth=5)
        flits = worm(4)
        for f in flits:
            vc.push(f)
        popped = [vc.pop(cycle=i) for i in range(4)]
        assert popped == flits

    def test_overflow_raises(self):
        vc = VirtualChannel(0, 0, depth=2)
        flits = worm(3)
        vc.push(flits[0])
        vc.push(flits[1])
        with pytest.raises(OverflowError):
            vc.push(flits[2])

    def test_tail_pop_clears_worm_state(self):
        vc = VirtualChannel(0, 0, depth=5)
        flits = worm(2)
        for f in flits:
            vc.push(f)
        vc.assign_route(Direction.EAST)
        vc.out_vc = object()
        vc.active_pid = 0
        vc.pop(0)
        assert vc.routed  # body/tail still draining
        vc.pop(1)
        assert not vc.routed and vc.out_vc is None and vc.active_pid is None

    def test_reset(self):
        vc = VirtualChannel(0, 0, depth=5)
        for f in worm(3):
            vc.push(f)
        vc.assign_route(Direction.EAST)
        vc.reset()
        assert vc.empty and not vc.routed


class TestOutOfBandEdits:
    """The queue edits that bypass ``push``/``pop`` (drops, snapshots)."""

    def test_purge_removes_only_the_packet_and_frees_its_slots(self):
        vc = VirtualChannel(0, 0, depth=5)
        tail_of_old = worm(2, pid=1)[1:]
        head_of_new = worm(3, pid=2)[:2]
        for f in tail_of_old + head_of_new:
            vc.reserve_slot(0)
            vc.push(f)
        queue = vc.queue
        vc.active_pid = 1
        vc.assign_route(Direction.EAST)
        vc.out_vc = object()
        assert vc.purge(2, cycle=10) == 2
        assert list(vc.queue) == tail_of_old
        assert vc.queue is queue  # hot loops keep a reference to the list
        # The surviving worm keeps draining; the freed slots return only
        # after the credit round-trip.
        assert vc.active_pid == 1 and vc.routed and vc.allocated
        assert vc.credits(10 + CREDIT_LATENCY - 1) == 2
        assert vc.credits(10 + CREDIT_LATENCY) == 4

    def test_purge_clears_worm_state_even_when_empty(self):
        # Head already forwarded, body still upstream: no flit to remove,
        # but the VC must stop draining towards the dropped worm's output.
        vc = VirtualChannel(0, 0, depth=5)
        vc.active_pid = 7
        vc.assign_route(Direction.NORTH)
        vc.out_vc = object()
        assert vc.purge(7, cycle=3) == 0
        assert vc.active_pid is None and not vc.routed and not vc.allocated
        assert vc.credits(100) == 5

    def test_purge_of_unrelated_packet_is_a_noop(self):
        vc = VirtualChannel(0, 0, depth=5)
        flits = worm(2, pid=1)
        for f in flits:
            vc.push(f)
        vc.active_pid = 1
        assert vc.purge(9, cycle=0) == 0
        assert list(vc.queue) == flits and vc.active_pid == 1
        assert not vc._releases

    def test_discard_front_skips_all_bookkeeping(self):
        vc = VirtualChannel(0, 0, depth=5)
        flits = worm(1)
        vc.reserve_slot(0)
        vc.push(flits[0])
        vc.active_pid = 0
        assert vc.discard_front() is flits[0]
        assert vc.empty
        # Unlike pop(): no credit release, worm state untouched.
        assert vc.credits(100) == 4 and vc.active_pid == 0

    def test_restore_reinstates_in_order_without_touching_credits(self):
        vc = VirtualChannel(0, 0, depth=2)
        flits = worm(3)
        vc._available = 0  # the snapshot's own ledger
        vc.restore(iter(flits))  # no depth check either: trusted state
        assert list(vc.queue) == flits
        assert vc.credits(0) == 0


class TestCredits:
    def test_initial_credits_equal_depth(self):
        vc = VirtualChannel(0, 0, depth=5)
        assert vc.credits(0) == 5

    def test_reserve_consumes(self):
        vc = VirtualChannel(0, 0, depth=3)
        vc.reserve_slot(0)
        assert vc.credits(0) == 2

    def test_reserve_underflow_raises(self):
        vc = VirtualChannel(0, 0, depth=1)
        vc.reserve_slot(0)
        with pytest.raises(RuntimeError):
            vc.reserve_slot(0)

    def test_release_is_delayed_by_round_trip(self):
        vc = VirtualChannel(0, 0, depth=2)
        vc.reserve_slot(0)
        vc.push(worm(1)[0])
        vc.pop(cycle=5)
        assert vc.credits(5) == 1
        assert vc.credits(5 + CREDIT_LATENCY - 1) == 1
        assert vc.credits(5 + CREDIT_LATENCY) == 2

    def test_refund(self):
        vc = VirtualChannel(0, 0, depth=2)
        vc.reserve_slot(0)
        vc.refund_slot()
        assert vc.credits(0) == 2

    @given(st.lists(st.booleans(), min_size=1, max_size=30))
    def test_credits_never_negative_or_above_depth(self, ops):
        vc = VirtualChannel(0, 0, depth=4)
        cycle = 0
        outstanding = 0
        for reserve in ops:
            cycle += 1
            if reserve and vc.credits(cycle) > 0:
                vc.reserve_slot(cycle)
                outstanding += 1
            elif outstanding:
                vc.schedule_release(cycle)
                outstanding -= 1
            assert 0 <= vc.credits(cycle) <= 4


class TestOwnership:
    def test_claim_and_release(self):
        vc = VirtualChannel(0, 0, depth=4)
        vc.claim(17)
        assert vc.owner_pid == 17
        vc.release_owner()
        assert vc.owner_pid is None

    def test_double_claim_raises(self):
        vc = VirtualChannel(0, 0, depth=4)
        vc.claim(1)
        with pytest.raises(RuntimeError):
            vc.claim(2)

    def test_injectable(self):
        vc = VirtualChannel(0, 0, depth=4)
        assert vc.injectable(0)
        vc.claim(1)
        assert not vc.injectable(0)
        vc.release_owner()
        vc.expected = 1
        assert not vc.injectable(0)
        vc.expected = 0
        assert vc.injectable(0)


class TestFaultyBuffer:
    def test_faulty_depth_is_one(self):
        vc = VirtualChannel(0, 0, depth=5)
        vc.faulty = True
        assert vc.effective_depth == 1

    def test_shrink_rebases_credits(self):
        vc = VirtualChannel(0, 0, depth=5)
        vc.faulty = True
        vc.rebase_credits()
        assert vc.credits(0) == 1

    def test_faulty_overflow(self):
        vc = VirtualChannel(0, 0, depth=5)
        vc.faulty = True
        vc.push(worm(2)[0])
        with pytest.raises(OverflowError):
            vc.push(worm(2)[1])
