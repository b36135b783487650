"""Audit-engine integration for the struct-of-arrays backend.

The SoA engine has no per-cycle observer hook, so ``audit=True`` with
``backend="soa"`` must refuse with a documented error instead of
silently skipping checks.  The supported path is the state bridge:
export an :class:`~repro.core.soa.state.SoAState` mid-run, decode it
into an object-model simulator, and run the full invariant battery
there.  These tests prove both halves — a decoded snapshot is *clean*
under every default checker, and seeded corruptions of the decoded
state trip exactly the invariant they violate (mirroring the live-run
corruption matrix in ``tests/test_audit.py``).
"""

from __future__ import annotations

import pytest

from repro.audit import AuditEngine, InvariantViolation, default_checkers
from repro.core.config import SimulationConfig
from repro.core.simulator import run_simulation
from repro.core.soa import BackendUnsupportedError
from repro.core.soa.engine import SoASimulator
from repro.core.soa.state import decode_state, encode_state, run_cycles


def decoded_state(cycles: int = 60, **overrides):
    """A mid-run SoA state decoded into an auditable object simulator.

    Returns ``(sim, cycle)`` where ``cycle`` is the snapshot's cycle
    (the last one executed).  The default rate is high enough that the
    network holds buffered worms, same-packet queue pairs, empty VCs
    and live output ports — every corruption below finds a target.
    """
    params = {
        "width": 4,
        "height": 4,
        "router": "roco",
        "routing": "xy",
        "traffic": "uniform",
        "injection_rate": 0.45,
        "warmup_packets": 30,
        "measure_packets": 150,
        "max_cycles": 20_000,
        "seed": 11,
    }
    params.update(overrides)
    config = SimulationConfig(**params)
    source = SoASimulator(config)
    run_cycles(source, cycles)
    state = encode_state(source)
    return decode_state(state, config), state.cycle


def each_vc(network):
    for node, router in network.routers.items():
        for vc in router.all_vcs():
            yield node, router, vc


def audit_corrupted(corrupt) -> InvariantViolation:
    """Decode a snapshot, corrupt it, and run one audited check pass."""
    sim, cycle = decoded_state()
    assert corrupt(sim.network), "corruption found no target in the snapshot"
    engine = AuditEngine(sim)
    with pytest.raises(InvariantViolation) as excinfo:
        engine.run_checks(cycle)
    return excinfo.value


class TestEngineRefusal:
    def test_audit_flag_raises_documented_error(self):
        config = SimulationConfig(
            width=4, height=4, router="roco", audit=True, backend="soa"
        )
        with pytest.raises(BackendUnsupportedError) as excinfo:
            run_simulation(config)
        assert excinfo.value.feature == "audit=True"
        # The error must point at the supported workflow.
        assert "SoAState" in str(excinfo.value)

    def test_refusal_happens_before_any_simulation(self):
        config = SimulationConfig(
            width=4, height=4, router="roco", audit=True, backend="soa"
        )
        with pytest.raises(BackendUnsupportedError):
            SoASimulator(config)


class TestDecodedSnapshotIsClean:
    def test_full_battery_passes_on_decoded_state(self):
        sim, cycle = decoded_state()
        engine = AuditEngine(sim)
        engine.run_checks(cycle)
        assert engine.checks_run == len(default_checkers())
        assert engine.cycles_audited == 1

    @pytest.mark.parametrize("router", ["roco", "generic"])
    @pytest.mark.parametrize("cycles", [1, 35, 90])
    def test_clean_across_routers_and_depths(self, router, cycles):
        sim, cycle = decoded_state(cycles=cycles, router=router)
        AuditEngine(sim).run_checks(cycle)

    def test_consecutive_checks_track_continuity(self):
        """Back-to-back passes arm the flit-location continuity checker
        (it needs adjacent snapshots); stepping the decoded network one
        cycle in between must keep it clean."""
        sim, cycle = decoded_state()
        engine = AuditEngine(sim)
        engine.run_checks(cycle)
        sim.network.step(cycle + 1)
        engine.run_checks(cycle + 1)
        assert engine.cycles_audited == 2


class TestCorruptedSnapshotIsCaught:
    def test_stolen_flit_breaks_conservation(self):
        def steal(network):
            for _, _, vc in each_vc(network):
                if vc.queue:
                    vc.discard_front()
                    vc._available += 1  # keep the credit sum balanced
                    return True
            return False

        assert audit_corrupted(steal).invariant == "conservation"

    def test_leaked_credit_breaks_credit_sum(self):
        def leak(network):
            for _, _, vc in each_vc(network):
                if vc.queue:
                    vc._available -= 1
                    return True
            return False

        assert audit_corrupted(leak).invariant == "credit"

    def test_swapped_flits_break_worm_order(self):
        def swap(network):
            for _, _, vc in each_vc(network):
                queue = vc.queue
                if len(queue) >= 2 and queue[0].packet.pid == queue[1].packet.pid:
                    queue[0], queue[1] = queue[1], queue[0]
                    return True
            return False

        assert audit_corrupted(swap).invariant == "wormhole-order"

    def test_stale_dead_flag_breaks_handshake(self):
        def flip(network):
            for router in network.routers.values():
                for port in router.outputs.values():
                    if port.downstream is not None and not port.dead:
                        port.dead = True
                        return True
            return False

        assert audit_corrupted(flip).invariant == "handshake"

    def test_duplicated_flit_is_caught(self):
        def duplicate(network):
            donor = None
            for _, _, vc in each_vc(network):
                if vc.queue:
                    donor = vc.queue[0]
                    break
            if donor is None:
                return False
            for _, _, vc in each_vc(network):
                if not vc.queue and not vc.dead:
                    vc.queue.append(donor)
                    vc._available -= 1
                    return True
            return False

        violation = audit_corrupted(duplicate)
        assert violation.invariant == "location"
        assert "duplicated" in violation.message

    def test_teleported_flit_breaks_location_continuity(self):
        """Continuity needs a previous snapshot: check clean at ``c``,
        move a buffered flit two hops, then check at ``c + 1``."""
        sim, cycle = decoded_state()
        engine = AuditEngine(sim)
        engine.run_checks(cycle)
        network = sim.network

        def teleport():
            prev = engine.prev_snapshot
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

        assert teleport(), "teleport found no target in the snapshot"
        with pytest.raises(InvariantViolation) as excinfo:
            engine.run_checks(cycle + 1)
        assert excinfo.value.invariant == "location"
        assert "jumped" in excinfo.value.message
