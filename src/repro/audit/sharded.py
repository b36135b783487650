"""Cross-shard conservation auditing (the boundary ledger).

The single-process audit engine (repro.audit.engine) walks live object
state, which no longer exists in one place once the mesh is sharded.
``SimulationConfig(audit=True)`` on a sharded run therefore enables this
module instead: every tile takes a per-cycle accounting snapshot after
its allocate phase, and the coordinator's
:class:`BoundaryLedger` reconciles them against its own record of what
crossed each boundary.

Checked every cycle:

* **flit conservation** — flits created so far (from the generation
  oracle) must equal flits currently held by some tile (source
  backlogs, VC buffers, wires — ghost-ingress wires included) plus
  flits consumed at PEs.  A boundary message lost in transit shows up
  here within one cycle, because the protocol guarantees zero flits are
  coordinator-held at snapshot time (every flit routed from cycle
  ``t``'s traversal rides cycle ``t``'s alloc grant).
* **boundary transit** — cumulative flit messages the coordinator
  routed to each tile must equal the messages that tile reports having
  applied (per-edge send counters localise a mismatch).
* **credit balance** — each tile checks, for every VC it is
  authoritative over at a cut, that ``available == effective_depth -
  occupied - expected - unmatured releases`` after remote deltas are
  applied; violations ride the audit payload and are raised here.

Violations raise :class:`ShardInvariantViolation` naming the invariant,
cycle and tile — fail-stop, like the in-process audit engine.
"""

from __future__ import annotations

from repro.core.runloop import AuditViolation


class ShardInvariantViolation(AuditViolation):
    """A cross-shard invariant broke (fail-stop diagnostics)."""

    def __init__(
        self, invariant: str, cycle: int, tile: int | None, message: str
    ) -> None:
        where = f"tile {tile}" if tile is not None else "coordinator"
        super().__init__(
            f"[{invariant}] cycle {cycle} ({where}): {message}"
        )
        self.invariant = invariant
        self.cycle = cycle
        self.tile = tile


class BoundaryLedger:
    """The coordinator's cumulative record of cross-boundary traffic."""

    def __init__(self, plan, flits_per_packet: int) -> None:
        self.plan = plan
        self.flits_per_packet = flits_per_packet
        #: Cumulative flit messages routed *to* each tile.
        self.sent_to = [0] * plan.num_tiles
        #: Checks performed (telemetry for tests / reports).
        self.cycles_checked = 0

    def note_sent(self, to_tile: int, count: int) -> None:
        self.sent_to[to_tile] += count

    def _tile_violations(self, cycle: int, audits) -> None:
        for tile, payload in enumerate(audits):
            for message in payload["violations"]:
                raise ShardInvariantViolation(
                    "credit-balance", cycle, tile, message
                )

    def check(self, cycle: int, generated_packets: int, audits) -> None:
        """Per-cycle reconciliation after every tile's allocate phase."""
        if any(payload is None for payload in audits):
            raise ShardInvariantViolation(
                "audit-payload", cycle, None,
                "a tile omitted its audit payload while auditing is on",
            )
        self._tile_violations(cycle, audits)
        for tile, payload in enumerate(audits):
            if payload["applied"] != self.sent_to[tile]:
                raise ShardInvariantViolation(
                    "boundary-transit", cycle, tile,
                    f"coordinator routed {self.sent_to[tile]} flit "
                    f"message(s) to this tile but it applied "
                    f"{payload['applied']}",
                )
        created_flits = generated_packets * self.flits_per_packet
        held = sum(payload["occupancy"] for payload in audits)
        ejected = sum(payload["ejected"] for payload in audits)
        if held + ejected != created_flits:
            per_tile = ", ".join(
                f"t{tile}: occ={payload['occupancy']} ej={payload['ejected']}"
                for tile, payload in enumerate(audits)
            )
            raise ShardInvariantViolation(
                "flit-conservation", cycle, None,
                f"{created_flits} flit(s) created but {held} held + "
                f"{ejected} ejected across tiles ({per_tile})",
            )
        self.cycles_checked += 1

    def final_check(
        self, cycle: int, generated_packets: int, audits, drained: bool
    ) -> None:
        """End-of-run ledger closure.

        On a drained run every created flit must have been consumed at
        a PE; on a max_cycles cutoff the per-cycle balance (including
        still-buffered flits) must simply hold one last time.
        """
        if any(payload is None for payload in audits):
            return  # run ended before the first audited cycle
        self._tile_violations(cycle, audits)
        created_flits = generated_packets * self.flits_per_packet
        held = sum(payload["occupancy"] for payload in audits)
        ejected = sum(payload["ejected"] for payload in audits)
        if drained and (held != 0 or ejected != created_flits):
            raise ShardInvariantViolation(
                "flit-conservation", cycle, None,
                f"drained run left {held} flit(s) buffered with {ejected} of "
                f"{created_flits} consumed",
            )
        if not drained and held + ejected != created_flits:
            raise ShardInvariantViolation(
                "flit-conservation", cycle, None,
                f"{created_flits} flit(s) created but {held} held + "
                f"{ejected} ejected at cutoff",
            )
