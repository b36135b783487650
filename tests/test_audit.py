"""Tests for the runtime invariant audit engine.

The positive half checks that audited runs are clean and count their
cycles (clean and bit-identical to unaudited runs, fault campaigns
included, is the ``audited`` row of tests/test_engines_agree.py); the
negative half seeds one deliberate corruption per checker through the
network's end-of-cycle observer hook (which the engine chains,
corruptor first) and asserts the right invariant fires.
"""

import pytest

from repro.arbiters.mirror import MirrorAllocator
from repro.audit import AuditEngine, InvariantViolation, default_checkers
from repro.core.simulator import Simulator
from repro.core.types import NodeId
from repro.faults import ComponentFault
from repro.faults.model import Component
from repro.routers.roco.path_set import ROW

from .conftest import small_config


def audited_sim(full_sweep: bool = False, **overrides) -> Simulator:
    overrides.setdefault("audit", True)
    return Simulator(small_config(**overrides), full_sweep=full_sweep)


class _CorruptOnce:
    """Observer fixture: applies one corruption, then stands down.

    Installed as ``network.on_cycle_stepped`` *before* ``run()`` so the
    audit engine chains it first and checks the corrupted state in the
    same cycle.  ``action(network)`` returns True once it found a target
    and corrupted it.
    """

    def __init__(self, action, min_cycle: int = 5) -> None:
        self.action = action
        self.min_cycle = min_cycle
        self.fired = False

    def __call__(self, cycle: int, stepped) -> None:
        if self.fired or cycle < self.min_cycle:
            return
        self.fired = bool(self.action())


def run_corrupted(sim: Simulator, action, min_cycle: int = 5) -> InvariantViolation:
    sim.network.on_cycle_stepped = _CorruptOnce(action, min_cycle)
    with pytest.raises(InvariantViolation) as excinfo:
        sim.run()
    return excinfo.value


def each_vc(network):
    for node, router in network.routers.items():
        for vc in router.all_vcs():
            yield node, router, vc


class TestCleanRuns:
    def test_audited_run_is_clean_and_counts_cycles(self):
        sim = audited_sim(measure_packets=80, warmup_packets=20)
        result = sim.run()
        assert result.delivered_packets > 0
        assert sim.audit.cycles_audited > 0
        assert sim.audit.checks_run == sim.audit.cycles_audited * len(
            default_checkers()
        )

    def test_audit_interval_thins_checks(self):
        sim = audited_sim(measure_packets=60)
        sim.audit.interval = 7
        result = sim.run()
        assert 0 < sim.audit.cycles_audited <= result.cycles // 7 + 1

    def test_disabled_config_builds_no_engine(self):
        sim = Simulator(small_config(measure_packets=40))
        assert sim.audit is None

    def test_attach_chains_existing_observer(self):
        sim = audited_sim(measure_packets=40)
        seen = []
        sim.network.on_cycle_stepped = lambda cycle, stepped: seen.append(cycle)
        sim.run()
        assert seen, "pre-installed observer must keep firing under audit"
        assert sim.audit.cycles_audited > 0

    def test_attach_is_idempotent(self):
        sim = audited_sim(measure_packets=40)
        sim.audit.attach()
        sim.audit.attach()
        sim.run()  # a double hook would recurse or double-count


class TestCorruptionIsCaught:
    def test_stolen_flit_breaks_conservation(self):
        sim = audited_sim()

        def steal():
            for _, _, vc in each_vc(sim.network):
                if vc.queue:
                    vc.discard_front()
                    vc._available += 1  # keep the credit sum balanced
                    return True
            return False

        violation = run_corrupted(sim, steal)
        assert violation.invariant == "conservation"

    def test_leaked_credit_breaks_credit_sum(self):
        sim = audited_sim()

        def leak():
            for _, _, vc in each_vc(sim.network):
                if vc.queue:
                    vc._available -= 1
                    return True
            return False

        violation = run_corrupted(sim, leak)
        assert violation.invariant == "credit"

    def test_flits_in_a_dead_vc_break_credit(self):
        """A dead VC holds no flit: a worm moved whole, credits and drain
        state included, from a live VC into a killed RoCo module's VC
        breaks only that rule."""
        node = NodeId(1, 1)
        sim = Simulator(
            small_config(audit=True, injection_rate=0.2),
            faults=[ComponentFault(node, Component.CROSSBAR, module=ROW)],
        )
        router = sim.network.routers[node]

        def forge():
            dead = [vc for vc in router.all_vcs() if vc.dead]
            live = [vc for vc in router.all_vcs() if vc.queue and not vc.dead]
            if not dead or not live:
                return False
            source, vc = live[0], dead[0]
            moved = len(source.queue)
            vc.queue.extend(source.queue)
            source.queue.clear()
            source._available += moved
            vc._available -= moved
            vc.active_pid, source.active_pid = source.active_pid, None
            return True

        violation = run_corrupted(sim, forge)
        assert violation.invariant == "credit"
        assert "dead VC holds" in violation.message

    def test_swapped_flits_break_worm_order(self):
        sim = audited_sim(injection_rate=0.2)

        def swap():
            for _, _, vc in each_vc(sim.network):
                queue = vc.queue
                if len(queue) >= 2 and queue[0].packet.pid == queue[1].packet.pid:
                    queue[0], queue[1] = queue[1], queue[0]
                    return True
            return False

        violation = run_corrupted(sim, swap)
        assert violation.invariant == "wormhole-order"

    def test_stale_dead_flag_breaks_handshake(self):
        sim = audited_sim()

        def flip():
            for router in sim.network.routers.values():
                for port in router.outputs.values():
                    if port.downstream is not None and not port.dead:
                        port.dead = True
                        return True
            return False

        violation = run_corrupted(sim, flip)
        assert violation.invariant == "handshake"

    def test_duplicated_flit_is_caught_in_snapshot(self):
        sim = audited_sim()

        def duplicate():
            donor = None
            for _, _, vc in each_vc(sim.network):
                if vc.queue:
                    donor = vc.queue[0]
                    break
            if donor is None:
                return False
            for _, _, vc in each_vc(sim.network):
                if not vc.queue and not vc.dead:
                    vc.queue.append(donor)
                    vc._available -= 1
                    return True
            return False

        violation = run_corrupted(sim, duplicate)
        assert violation.invariant == "location"
        assert "duplicated" in violation.message

    def test_teleported_flit_breaks_location_continuity(self):
        sim = audited_sim()

        def teleport():
            # Move a buffered flit to a router two hops from where the
            # previous snapshot saw it; the continuity check must fire.
            prev = sim.audit.prev_snapshot
            if prev is None:
                return False
            network = sim.network
            for _, _, vc in each_vc(network):
                if not vc.queue:
                    continue
                flit = vc.queue[0]
                old = prev.locations.get((flit.packet.pid, flit.seq))
                if old is None:
                    continue
                for other, router in network.routers.items():
                    if abs(other.x - old.x) + abs(other.y - old.y) < 2:
                        continue
                    for target in router.all_vcs():
                        if not target.queue and not target.dead:
                            vc.discard_front()
                            vc._available += 1
                            target.queue.append(flit)
                            target._available -= 1
                            return True
            return False

        violation = run_corrupted(sim, teleport)
        assert violation.invariant == "location"
        assert "jumped" in violation.message

    def test_violation_quotes_the_packet_journey(self):
        sim = audited_sim()

        def steal():
            for _, _, vc in each_vc(sim.network):
                if vc.queue:
                    vc.discard_front()
                    vc._available += 1
                    return True
            return False

        violation = run_corrupted(sim, steal, min_cycle=20)
        if violation.pid is not None:
            assert f"packet {violation.pid}" in violation.excerpt


class _ForgingAllocator(MirrorAllocator):
    """Emits a grant for a (port, slot) nobody requested: on a bool
    matrix (the full sweep's ``allocate``) and on request masks."""

    def allocate(self, requests):
        grants = super().allocate(requests)
        return grants + self._forged(grants, lambda port, slot: requests[port][slot][0])

    def allocate_masks(self, m00, m01, m10, m11):
        grants = super().allocate_masks(m00, m01, m10, m11)
        masks = ((m00, m01), (m10, m11))
        return grants + self._forged(grants, lambda port, slot: masks[port][slot] & 1)

    @staticmethod
    def _forged(grants, requested) -> list:
        if len(grants) == 1:
            port, slot = 1 - grants[0][0], 1 - grants[0][1]
            if not requested(port, slot):
                return [(port, slot, 0)]
        return []


class _LazyAllocator(MirrorAllocator):
    """Serves one passage when the maximal matching serves two, on a
    bool matrix and on request masks."""

    def allocate(self, requests):
        return super().allocate(requests)[:1]

    def allocate_masks(self, m00, m01, m10, m11):
        return super().allocate_masks(m00, m01, m10, m11)[:1]


class _MisdirectedLoneAllocator(MirrorAllocator):
    """Grants a lone request's VC the other output slot."""

    def grant_lone(self, port, slot, vc):
        port, slot, vc = super().grant_lone(port, slot, vc)
        return (port, 1 - slot, vc)


class _OverflowingLoneAllocator(MirrorAllocator):
    """Grants a lone request a VC index past the port's last VC."""

    def grant_lone(self, port, slot, vc):
        port, slot, _ = super().grant_lone(port, slot, vc)
        return (port, slot, self.num_vcs)


def _sabotage_allocators(sim: Simulator, allocator_cls) -> None:
    vcs = sim.config.router_config.vcs_per_port
    for router in sim.network.routers.values():
        for module in router.modules.values():
            module.allocator = allocator_cls(vcs)


class TestMatchingChecker:
    """A bool matrix is the full sweep's (``allocate``), request masks
    the active scheduler's (``allocate_masks``)."""

    def test_forged_grant_is_caught(self):
        sim = audited_sim(full_sweep=True)
        _sabotage_allocators(sim, _ForgingAllocator)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert excinfo.value.invariant == "matching"
        assert "forged" in excinfo.value.message

    def test_forged_mask_grant_is_caught(self):
        sim = audited_sim()
        _sabotage_allocators(sim, _ForgingAllocator)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert excinfo.value.invariant == "matching"
        assert "forged" in excinfo.value.message

    @pytest.mark.parametrize(
        "allocator_cls,message",
        [(_MisdirectedLoneAllocator, "forged"), (_OverflowingLoneAllocator, "out of range")],
        ids=["misdirected", "overflowing"],
    )
    def test_corrupted_lone_grant_is_caught(self, allocator_cls, message):
        sim = audited_sim()
        _sabotage_allocators(sim, allocator_cls)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert excinfo.value.invariant == "matching"
        assert message in excinfo.value.message

    def test_dropped_grant_breaks_maximality(self):
        sim = audited_sim(full_sweep=True, injection_rate=0.3)
        _sabotage_allocators(sim, _LazyAllocator)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert excinfo.value.invariant == "matching"
        assert "maximal" in excinfo.value.message

    def test_dropped_mask_grant_breaks_maximality(self):
        sim = audited_sim(injection_rate=0.3)
        _sabotage_allocators(sim, _LazyAllocator)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert excinfo.value.invariant == "matching"
        assert "maximal" in excinfo.value.message


class TestFinalCheck:
    def test_leaked_outstanding_fails_final_check(self):
        sim = audited_sim(measure_packets=40)
        sim.run()
        sim._outstanding = 1
        with pytest.raises(InvariantViolation) as excinfo:
            sim.audit.final_check(sim.network.cycle)
        assert excinfo.value.invariant == "conservation"

    def test_unbalanced_drop_reasons_fail_final_check(self):
        sim = audited_sim(measure_packets=40)
        sim.run()
        sim.network.stats.drops_by_reason["phantom"] = 3
        with pytest.raises(InvariantViolation) as excinfo:
            sim.audit.final_check(sim.network.cycle)
        assert "drop reasons" in excinfo.value.message


class TestEngineConstruction:
    def test_interval_validated(self):
        sim = Simulator(small_config(measure_packets=40))
        with pytest.raises(ValueError):
            AuditEngine(sim, interval=0)
