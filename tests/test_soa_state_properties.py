"""Property tests for the object <-> struct-of-arrays state bridge.

Random mid-run network states are produced by running either backend a
random number of cycles under a random supported configuration; the
bridge must then satisfy, for every such state:

* **Round trip** — ``encode(decode(encode(sim))) == encode(sim)``: no
  dynamic field is lost or invented by either direction.
* **Cross-backend canonicality** — both backends at the same point of
  the same run encode to the *same* value (this is the equivalence
  oracle the conformance grid's end-of-run check rests on, applied
  mid-flight).
* **Step/encode commutation** — advancing the SoA engine one network
  step and encoding equals decoding, advancing the object model one
  step, and re-encoding.  Network stepping draws no randomness, so the
  fresh rng of the decoded simulator is immaterial (generation phases,
  which do draw, are deliberately outside the guarantee — see the
  module docstring of repro.core.soa.state).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.core.simulator import Simulator
from repro.core.soa.engine import SoASimulator
from repro.core.soa.state import (
    SoAState,
    decode_state,
    encode_state,
    run_cycles,
    state_diff,
    states_equal,
)

configs = st.fixed_dictionaries(
    {
        "router": st.sampled_from(["roco", "generic"]),
        "routing": st.sampled_from(["xy", "xy-yx", "adaptive"]),
        "traffic": st.sampled_from(["uniform", "transpose"]),
        "injection_rate": st.sampled_from([0.05, 0.2, 0.45]),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)

scenarios = st.tuples(
    configs,
    st.booleans(),  # full_sweep
    st.integers(min_value=0, max_value=80),  # cycles before the capture
)


def build_config(params) -> SimulationConfig:
    return SimulationConfig(
        width=4,
        height=4,
        warmup_packets=20,
        measure_packets=100,
        max_cycles=20_000,
        **params,
    )


def assert_states_equal(a: SoAState, b: SoAState, label: str) -> None:
    assert states_equal(a, b), f"{label}:\n" + "\n".join(state_diff(a, b))


@settings(max_examples=40, deadline=None)
@given(scenarios)
def test_round_trip_loses_no_fields(scenario):
    params, full_sweep, cycles = scenario
    config = build_config(params)
    sim = SoASimulator(config, full_sweep=full_sweep)
    run_cycles(sim, cycles)
    captured = encode_state(sim)
    recoded = encode_state(decode_state(captured, config))
    assert_states_equal(captured, recoded, "decode/encode round trip")


@settings(max_examples=25, deadline=None)
@given(scenarios)
def test_backends_encode_identically_mid_run(scenario):
    params, full_sweep, cycles = scenario
    config = build_config(params)
    fast = SoASimulator(config, full_sweep=full_sweep)
    reference = Simulator(config, full_sweep=full_sweep)
    run_cycles(fast, cycles)
    run_cycles(reference, cycles)
    assert_states_equal(
        encode_state(fast), encode_state(reference), "cross-backend encoding"
    )


@settings(max_examples=25, deadline=None)
@given(scenarios, st.integers(min_value=1, max_value=5))
def test_stepping_commutes_with_encoding(scenario, extra):
    params, full_sweep, cycles = scenario
    config = build_config(params)
    sim = SoASimulator(config, full_sweep=full_sweep)
    next_cycle = run_cycles(sim, cycles)
    decoded = decode_state(encode_state(sim), config)
    for cycle in range(next_cycle, next_cycle + extra):
        sim._net_step(cycle)
        decoded.network.step(cycle)
    assert_states_equal(
        encode_state(sim), encode_state(decoded), f"commute after {extra} step(s)"
    )


@pytest.mark.parametrize("full_sweep", (False, True))
@pytest.mark.parametrize(
    "routing, traffic", (("xy", "uniform"), ("adaptive", "transpose"))
)
def test_generic_lockstep_every_cycle(routing, traffic, full_sweep):
    """The paper's 8x8 generic mesh near saturation, compared each cycle.

    The sampled properties above meet a divergence some cycles after it
    happened; here an arbitration slip — one pointer, one credit, one
    grant out of order — fails at the cycle it happens.
    """
    config = SimulationConfig(
        router="generic",
        routing=routing,
        traffic=traffic,
        injection_rate=0.2,
        warmup_packets=60,
        measure_packets=340,
        seed=7,
    )
    fast = SoASimulator(config, full_sweep=full_sweep)
    reference = Simulator(config, full_sweep=full_sweep)
    for cycle in range(150):
        run_cycles(fast, 1, start=cycle)
        run_cycles(reference, 1, start=cycle)
        assert_states_equal(
            encode_state(fast), encode_state(reference), f"after cycle {cycle}"
        )


class TestBridgeEdges:
    def test_initial_state_round_trips(self):
        config = build_config(
            dict(router="roco", routing="xy", traffic="uniform",
                 injection_rate=0.1, seed=3)
        )
        sim = SoASimulator(config)
        captured = encode_state(sim)
        assert captured.generated == 0 and captured.packets == ()
        recoded = encode_state(decode_state(captured, config))
        assert_states_equal(captured, recoded, "empty-state round trip")

    def test_decode_rejects_mismatched_config(self):
        config = build_config(
            dict(router="roco", routing="xy", traffic="uniform",
                 injection_rate=0.1, seed=3)
        )
        sim = SoASimulator(config)
        run_cycles(sim, 10)
        captured = encode_state(sim)
        from dataclasses import replace

        with pytest.raises(ValueError, match="does not match"):
            decode_state(captured, replace(config, router="generic"))

    def test_encode_rejects_unknown_backend(self):
        with pytest.raises(TypeError, match="not a known backend"):
            encode_state(object())

    def test_states_hashable_and_diff_empty_when_equal(self):
        config = build_config(
            dict(router="generic", routing="adaptive", traffic="transpose",
                 injection_rate=0.2, seed=5)
        )
        sim = SoASimulator(config)
        run_cycles(sim, 25)
        a = encode_state(sim)
        b = encode_state(sim)
        assert hash(a) == hash(b)
        assert state_diff(a, b) == []

    def test_diff_pinpoints_a_change(self):
        config = build_config(
            dict(router="roco", routing="xy", traffic="uniform",
                 injection_rate=0.2, seed=5)
        )
        sim = SoASimulator(config)
        run_cycles(sim, 25)
        a = encode_state(sim)
        sim._net_step(25)
        b = encode_state(sim)
        assert not states_equal(a, b)
        assert any(line.startswith("cycle") for line in state_diff(a, b))
