"""The one-walk allocate body == the full-sweep reference, on multi-VC states.

A router step that finds two or more occupied VCs runs the one-walk body
of ``allocate``: readiness and the contention tally taken in a single
pass over ``occupied`` (``BaseRouter._ready_walk``, or RoCo's own walk),
then the SA request masks built from the ready VCs.  The full sweep
does not: that reference keeps the general body as it stood before (for
RoCo, its own every-VC walk).  Each case puts the centre router of a 5x5 mesh in a state of two
or three occupied VCs on twin networks, one active-scheduled and one
``full_sweep=True``, runs ``allocate`` on both and compares what
``tests/test_lone_allocate.py`` compares: every arbiter's pointer, the
SA winners in grant order, each VC's worm, ownership and credit fields
(the centre's and those of the routers its worms are bound for), the
stall table and the activity and contention counters.  The one walk
stages its heads through ``BaseRouter._stage_heads`` and the reference
through its own loop (``BaseRouter._stage_reference`` for generic and
Path-Sensitive); both share only each router's route choice
(``_request_va``) and the VA resolution, so the battery checks head
staging and the SA half against an independent body, not VA itself.

Each VC's state is drawn from the lone battery's vocabulary (kinds,
targets, conditions); a later VC shares the output, the input group
(port, path set or module port) or both with an earlier one three times
in four, so the arbitrations this body settles — a port's or a
crosspoint's speculative and settled requesters, two inputs on one
output, both RoCo modules at once — are met often.  A further set of
cases chains three VCs that all request the switch (:func:`draw`), the
shape Path-Sensitive's chained dependency settles.  The arbiters start
each case at pointers that rotate from case to case.
"""

from __future__ import annotations

import random

import pytest

from repro.routers import base, generic, path_sensitive
from repro.routers.roco import router as roco_router

from .test_lone_allocate import (
    BODY,
    CREDIT,
    CYCLE,
    EJECTS,
    HEAD,
    NONE,
    VARIANTS,
    cases,
    seeded,
    twins,
)

#: Cases per variant and occupied-VC count.
CASES = {2: 400, 3: 300}
#: Cases per variant of three VCs that all request the switch, drawn as
#: a chain (:func:`draw`).
CHAIN_CASES = 200


def universe(variant: str, twin) -> list[tuple]:
    """Every one-VC state of the lone battery, less its pointer; a state
    without a condition once per pointer value the battery gives it, so
    healthy states are drawn more often."""
    return [case[:5] for case in cases(variant, twin)]


def requesting(states: list[tuple]) -> list[tuple]:
    """The states whose VC requests the switch: an allocated head or a
    body flit, with room downstream and no condition."""
    return [
        state for state in states
        if state[2] in (HEAD, BODY) and state[3] in (CREDIT, EJECTS)
        and state[4] == NONE
    ]


def draw(rng: random.Random, states: list[tuple], twin, chain: bool = False):
    """A sampler of ``count`` states on distinct VCs; each after the first
    shares the output, the input group or both with an earlier one three
    times in four.

    A ``chain`` sampler links each state to the one before it instead:
    the second shares its input group but not its output, the third its
    output, and so on.  Its three states are the shape in which an input
    already matched to one output also wants a later one that a second
    input wants, which Path-Sensitive's chained dependency settles (a
    random draw meets it a few times in a thousand cases)."""
    vcs = twin.router.all_vcs()

    def group(state):
        vc = vcs[state[0]]
        return twin.module_of(vc), vc.port

    # A later state shares with its anchor: the output, the input group,
    # both (one crosspoint, one stage-1 port) or nothing.
    keys = (
        lambda state: state[1],
        group,
        lambda state: (group(state), state[1]),
        lambda state: None,
    )
    pools: list[dict] = [{} for _ in keys]
    for state in states:
        for key, pool in zip(keys, pools):
            pool.setdefault(key(state), []).append(state)

    def drawn(count: int) -> list[tuple]:
        picked = [rng.choice(states)]
        while len(picked) < count:
            anchor = rng.choice(picked)
            share = rng.randrange(len(keys))
            state = rng.choice(pools[share][keys[share](anchor)])
            if all(state[0] != other[0] for other in picked):
                picked.append(state)
        return picked

    def chained(count: int) -> list[tuple]:
        picked = [rng.choice(states)]
        while len(picked) < count:
            anchor, share = picked[-1], len(picked) % 2
            options = [
                state for state in pools[share][keys[share](anchor)]
                if all(state[0] != other[0] for other in picked)
                and (not share or state[1] != anchor[1])
            ]
            if not options:  # a dead end: start the chain again
                picked = [rng.choice(states)]
                continue
            picked.append(rng.choice(options))
        return picked

    return chained if chain else drawn


def check(variant: str) -> dict:
    """Run every multi-VC case of ``variant``; count the cases, and those
    that granted twice, ran VA and kept a verdict."""
    active, sweep = twins(variant)
    rng = random.Random(f"multi-{variant}")
    states = universe(variant, active)
    drawn = draw(rng, states, active)
    busy = requesting(states)
    tally = dict.fromkeys(("cases", "granted", "va", "kept"), 0)
    activity = active.net.stats.activity
    vcs = active.router.all_vcs()
    number = 0
    runs = [(drawn, count, total) for count, total in CASES.items()]
    if busy:  # the look-ahead ablations place unallocated heads only
        runs.append((draw(rng, busy, active, chain=True), 3, CHAIN_CASES))
    for drawn, count, total in runs:
        done = 0
        while done < total:
            picked = drawn(count)
            number += 1
            for twin in (active, sweep):
                twin.reset(0)
                for j, arbiter in enumerate(twin.arbiters):
                    arbiter._next = (number + j) % arbiter.num_requesters
                placed = [
                    twin.put(*state, 8 * number + 2 * k)
                    for k, state in enumerate(picked)
                ]
            if None in placed:
                continue  # two held worms on one downstream VC: not a state
            done += 1
            verdicts = [vcs[state[0]].verdict for state in picked]
            va = activity.va_requests
            active.router.allocate(CYCLE)
            sweep.router.allocate(CYCLE)
            kept = False
            for state, packet, verdict in zip(picked, placed, verdicts):
                vc = vcs[state[0]]
                if vc.verdict != verdict:
                    # A fresh hard-block verdict, kept on the active
                    # scheduler only.
                    assert vc.verdict[:2] == (active.net.fault_epoch, packet.pid)
                    vc.verdict = verdict
                    kept = True
            if kept:
                tally["kept"] += 1
            ods = [state[1] for state in picked]
            got, want = active.snapshot(*ods), sweep.snapshot(*ods)
            for field in got:
                assert got[field] == want[field], (variant, picked, field)
            tally["cases"] += 1
            tally["granted"] += len(got["sa_winners"]) > 1
            tally["va"] += activity.va_requests > va
    return tally


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_one_walk_equals_reference(variant):
    tally = check(variant)
    # Not vacuous: heads run VA, and (with the battery's full vocabulary)
    # one step grants two passages and a dead output keeps verdicts.
    assert tally["va"] > tally["cases"] // 10, tally
    if len(VARIANTS[variant][2]) > 3:
        assert tally["granted"] > 0, tally
        assert tally["kept"] > 0, tally


#: name -> (class, method, variant, [(old, new), ...]): one seeded fault,
#: source edits of the one walk (a router's ``allocate`` outside its
#: full-sweep branch, or the shared ``_stage_heads`` and ``_ready_walk``)
#: or of the reference (``_stage_reference``), which the variant's
#: battery must catch.
MUTANTS = {
    "generic: speculative rule inverted": (
        generic.GenericRouter, "allocate", "generic",
        [("speculative = vc in newly_allocated",
          "speculative = vc not in newly_allocated")],
    ),
    "generic: stage-2 speculative rule inverted": (
        generic.GenericRouter, "allocate", "generic",
        [("nominated is None or (nominated[1] and not speculative)",
          "nominated is None or (not nominated[1] and speculative)")],
    ),
    "generic: tally taken before VA": (
        generic.GenericRouter, "allocate", "generic",
        [("        if va_requests:\n"
          "            self._resolve_vc_allocations(va_requests, cycle)\n\n"
          "        # One walk",
          "        self._tally_contention(occupied)\n"
          "        if va_requests:\n"
          "            self._resolve_vc_allocations(va_requests, cycle)\n\n"
          "        # One walk"),
         ("        self._add_contention(tally)\n"
          "        if not ready:", "        if not ready:")],
    ),
    "generic: grant commit order reversed": (
        generic.GenericRouter, "allocate", "generic",
        [("in stage2.items():", "in reversed(list(stage2.items())):")],
    ),
    "path_sensitive: hold penalty ignored": (
        base.BaseRouter, "_ready_walk", "path_sensitive",
        [("vc.hold_until > cycle", "False")],
    ),
    "path_sensitive: chained dependency ignored": (
        path_sensitive.PathSensitiveRouter, "allocate", "path_sensitive",
        [("mask = mask & ~_MATCHED_LINES[out_dir, matched] or mask", "pass")],
    ),
    "path_sensitive: newly allocated ignored": (
        path_sensitive.PathSensitiveRouter, "allocate", "path_sensitive",
        [("            speculative = vc in newly_allocated\n"
          "            entry = crosspoints",
          "            speculative = False\n"
          "            entry = crosspoints")],
    ),
    "roco: tally booked once, not per ready module": (
        roco_router.RoCoRouter, "allocate", "roco",
        [("            self._add_contention(tally)\n",
          "            if module is row or not ready[0]:\n"
          "                self._add_contention(tally)\n")],
    ),
    "roco: grant commit order reversed": (
        roco_router.RoCoRouter, "allocate", "roco",
        [("in ((row, ready[0], 0), (column, ready[1], 4)):",
          "in ((column, ready[1], 4), (row, ready[0], 0)):")],
    ),
    "roco: mask bit set by slot, not VC": (
        roco_router.RoCoRouter, "allocate", "roco",
        [("masks[at + 2 * vc.port] |= 1 << vc.index",
          "masks[at + 2 * vc.port] |= 1 << (at & 1)")],
    ),
}

for _variant in ("path_sensitive", "roco"):
    MUTANTS[f"{_variant}: RC cycle charged under look-ahead"] = (
        base.BaseRouter, "_stage_heads", _variant,
        [("charges_rc and front.arrival", "front.arrival")],
    )
for _variant in ("generic", "path_sensitive", "roco"):
    MUTANTS[f"{_variant}: dropped front kept"] = (
        base.BaseRouter, "_stage_heads", _variant,
        [("self._discard_dropped_front(vc, cycle)", "pass")],
    )
# Path-Sensitive holds a head for RC only without look-ahead routing.
for _variant in ("generic", "path_sensitive-no-lookahead"):
    MUTANTS[f"{_variant}: reference RC hold dropped"] = (
        base.BaseRouter, "_stage_reference", _variant,
        [("if self._charges_rc and front.arrival >= cycle:", "if False:")],
    )
for _variant in ("generic", "path_sensitive", "roco", "roco-sequential"):
    MUTANTS[f"{_variant}: requester not reported"] = (
        base.BaseRouter, "_stage_heads", _variant,
        [("requested.append(vc)", "pass")],
    )


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_battery_catches_a_seeded_fault(name, monkeypatch):
    cls, method, variant, edits = MUTANTS[name]
    monkeypatch.setattr(cls, method, seeded(cls, method, edits))
    with pytest.raises(AssertionError):
        check(variant)
