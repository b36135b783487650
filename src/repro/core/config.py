"""Simulation configuration objects.

A single :class:`SimulationConfig` captures everything the paper's
simulator is "fully parameterizable" over (Section 5.1): network size,
routing algorithm, VCs per port, buffer depth, injection rate and traffic
type, flit size and flits per packet, plus the warm-up / measurement
phases.

Both dataclasses are their own codec: :meth:`to_payload` is the
plain-JSON form every other module serialises a configuration through
(the cache key, job files, server requests) and
:meth:`from_payload` its inverse.  One rule decides what a payload
holds, so a field added later needs no line anywhere else: the fields of
cache-key format 1 appear whatever their value, every field declared
after them appears only when it differs from its default — which keeps
every key already on disk valid — and an unknown key is rejected by
name.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.types import RoutingMode

#: Traffic patterns that permute the bits of a node index
#: (repro.traffic.permutations): they need whole bits.
BIT_PERMUTATIONS = ("bit_complement", "bit_reverse", "shuffle")


def _codec_fields(cls, last: str) -> tuple[frozenset, tuple, tuple]:
    """Split a dataclass's fields after ``last``, the final field of
    cache-key format 1: ``(known, always, sparse)`` — every name, the
    names emitted always, and the ``(name, default)`` pairs emitted
    off-default.  New fields are declared below ``last``.

    Computed once per class at import: ``to_payload`` sits on the
    ``job_key`` path of every cached job and only walks these tuples.
    """
    names = [f.name for f in fields(cls)]
    cut = names.index(last) + 1
    sparse = tuple((f.name, f.default) for f in fields(cls)[cut:])
    return frozenset(names), tuple(names[:cut]), sparse


def _emit(obj, always: tuple, sparse: tuple) -> dict:
    payload = {name: getattr(obj, name) for name in always}
    for name, default in sparse:
        value = getattr(obj, name)
        if value != default:
            payload[name] = value
    return payload


def reject_unknown(kind: str, payload: dict, known) -> None:
    """Raise ``ValueError`` naming the first key of ``payload`` outside
    ``known`` (the ``from_payload`` half of the codec rule)."""
    for name in payload:
        if name not in known:
            raise ValueError(f"unknown {kind} field {name!r}")


def _int_fields(cls) -> tuple[str, ...]:
    """The fields ``cls`` declares ``int``."""
    return tuple(f.name for f in fields(cls) if f.type == "int")


def _require_ints(obj, names: tuple[str, ...]) -> None:
    """Raise ``ValueError`` naming the first of ``names`` whose value is
    not an ``int``: a float, a string or a ``bool`` would pass the range
    checks (or fail them with a ``TypeError``) and break a run later."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, not {value!r}")


def parse_shards(value) -> tuple[int, int]:
    """Normalise a shard spec (``"2x2"``, ``(2, 2)``, ``[1, 2]``).

    Returns the ``(tiles_x, tiles_y)`` tuple; geometric feasibility
    (divisibility, minimum tile extents) is checked by the shard planner
    at run time, where the mesh dimensions are known to matter.
    """
    if isinstance(value, str):
        parts = value.lower().split("x")
        if len(parts) != 2:
            raise ValueError(f"shards spec {value!r} is not of the form 'WxH'")
        try:
            value = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise ValueError(
                f"shards spec {value!r} is not of the form 'WxH'"
            ) from None
    try:
        tiles_x, tiles_y = value
        tiles_x, tiles_y = int(tiles_x), int(tiles_y)
    except (TypeError, ValueError):
        raise ValueError(f"shards spec {value!r} is not a (tiles_x, tiles_y) pair")
    if tiles_x < 1 or tiles_y < 1:
        raise ValueError(f"shards {tiles_x}x{tiles_y}: tile counts must be >= 1")
    return (tiles_x, tiles_y)


@dataclass
class RouterConfig:
    """Static structural parameters of one router instance.

    The defaults reproduce the paper's fairness setup (Section 5.4): the
    generic router uses 3 VCs x 4-flit buffers on 5 ports (60 flits); the
    4-port Path-Sensitive and RoCo routers use 3 VCs x 5-flit buffers on 4
    path sets (60 flits).  Router implementations override ``buffer_depth``
    accordingly via :meth:`for_architecture`.
    """

    vcs_per_port: int = 3
    buffer_depth: int = 4
    flit_width_bits: int = 128
    #: Ablation switch: use the Mirroring Effect allocator for RoCo's
    #: 2x2 crossbars (Section 3.3).  False falls back to a plain
    #: two-stage separable allocator with no maximal-matching guarantee.
    mirror_allocation: bool = True
    #: Ablation switch: look-ahead routing (Section 3.1).  False charges
    #: RoCo and Path-Sensitive head flits the same post-arrival RC cycle
    #: the generic router pays.
    lookahead_routing: bool = True
    # End of cache-key format 1 (see SimulationConfig.seed).

    def __post_init__(self) -> None:
        _require_ints(self, _ROUTER_INTS)

    @classmethod
    def for_architecture(cls, architecture: str, **overrides) -> "RouterConfig":
        """Paper-default configuration for a named architecture.

        ``architecture`` is one of ``"generic"``, ``"path_sensitive"``,
        ``"roco"``.  Keyword overrides win over the defaults.
        """
        depths = {"generic": 4, "path_sensitive": 5, "roco": 5}
        if architecture not in depths:
            raise ValueError(f"unknown architecture {architecture!r}")
        params = {"buffer_depth": depths[architecture]}
        params.update(overrides)
        return cls(**params)

    def to_payload(self) -> dict:
        return _emit(self, _ROUTER_ALWAYS, _ROUTER_SPARSE)

    @classmethod
    def from_payload(cls, payload: dict) -> "RouterConfig":
        reject_unknown("router_config", payload, _ROUTER_KNOWN)
        return cls(**payload)


_ROUTER_KNOWN, _ROUTER_ALWAYS, _ROUTER_SPARSE = _codec_fields(
    RouterConfig, last="lookahead_routing"
)
_ROUTER_INTS = _int_fields(RouterConfig)


@dataclass
class SimulationConfig:
    """Full description of one simulation run."""

    #: Network is ``width x height``; the paper evaluates an 8x8 mesh.
    width: int = 8
    height: int = 8
    #: "mesh" (the paper's evaluation) or "torus".  Torus support is
    #: implemented for the generic router under XY routing, using
    #: Dally-Seitz dateline VC classes to break the ring cycles; the
    #: RoCo/Path-Sensitive VC structures are defined by the paper for
    #: meshes only.
    topology: str = "mesh"
    router: str = "roco"
    routing: RoutingMode = RoutingMode.XY
    traffic: str = "uniform"
    #: Offered load in flits/node/cycle (the paper's x-axis unit).
    injection_rate: float = 0.1
    flits_per_packet: int = 4
    router_config: RouterConfig | None = None
    #: Packets injected before measurement starts (paper: 20,000).
    warmup_packets: int = 500
    #: Packets measured after warm-up (paper: 1,000,000).
    measure_packets: int = 3000
    #: Hard ceiling on simulated cycles (guards faulty-network runs, where
    #: the paper stops after "twice the fault-free completion time").
    max_cycles: int = 200_000
    #: Cycles a head flit may stall against a dead resource before its
    #: packet is discarded (faulty networks only).
    fault_drop_timeout: int = 200
    #: Cycles of network-wide inactivity after the last injection that end
    #: the run early (drain detection).
    drain_timeout: int = 2_000
    seed: int = 1
    # End of cache-key format 1.  The fields below (and any new field,
    # which is declared below) enter a payload only when off-default.
    #: Opt-in runtime invariant auditing (repro.audit): per-cycle checks
    #: of flit conservation, credit accounting, wormhole ordering,
    #: allocation legality and flit location continuity.  Off by default —
    #: the hot path then pays nothing beyond an ``is not None`` check.
    audit: bool = False
    #: Execution backend: ``"object"`` is the reference per-flit object
    #: model; ``"soa"`` is the struct-of-arrays fast path
    #: (``repro.core.soa``), bit-identical on its supported envelope and
    #: raising ``BackendUnsupportedError`` outside it (see
    #: docs/vectorized-core.md).
    backend: str = "object"
    #: Tile the mesh into ``(tiles_x, tiles_y)`` rectangles, each
    #: stepped by its own tile simulator exchanging boundary flits and
    #: credits once per cycle (repro.harness.sharded); bit-identical to
    #: the reference on its envelope, and slower than it — an
    #: equivalence-checked protocol, not a speed-up (``backend="soa"`` is
    #: the fast path).  Accepts a tuple or a ``"2x2"`` string; None
    #: (default) and ``(1, 1)`` run the reference engine.
    shards: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        _require_ints(self, _SIM_INTS)
        if self.router_config is None:
            self.router_config = RouterConfig.for_architecture(self.router)
        if isinstance(self.routing, str):
            self.routing = RoutingMode(self.routing)
        if self.width < 2 or self.height < 2:
            raise ValueError("mesh must be at least 2x2")
        if not 0.0 < self.injection_rate <= 1.0:
            # Zero can never generate the packet budget.
            raise ValueError("injection rate must be within (0, 1] flits/node/cycle")
        if self.flits_per_packet < 1:
            raise ValueError("packets need at least one flit")
        if self.measure_packets < 1:
            # A run that can never start measurement would report vacuous
            # statistics (zero injected packets); reject it up front.
            raise ValueError("measure_packets must be >= 1")
        if self.warmup_packets < 0:
            raise ValueError("warmup_packets must be >= 0")
        # Values that would otherwise fail later, and misreported: an
        # empty buffer stalls until the drain watchdog calls it a
        # deadlock, a run of no cycles returns an empty record.  Zero
        # stays legal for both timeouts.
        if self.router_config.buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        if self.router_config.vcs_per_port < 1:
            raise ValueError("vcs_per_port must be >= 1")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")
        if self.fault_drop_timeout < 0:
            raise ValueError("fault_drop_timeout must be >= 0")
        if self.backend not in ("object", "soa"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.shards is not None:
            self.shards = parse_shards(self.shards)
        if self.topology not in ("mesh", "torus"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.topology == "torus":
            if self.router != "generic" or self.routing is not RoutingMode.XY:
                raise ValueError(
                    "torus support requires router='generic' with XY routing "
                    "(dateline VC classes; see docs/modeling-notes.md)"
                )
            if self.width < 3 or self.height < 3:
                raise ValueError("a torus needs at least 3 nodes per ring")
            if self.router_config.vcs_per_port < 3:
                raise ValueError(
                    "a torus needs at least 3 VCs per port (two dateline "
                    "classes; see docs/modeling-notes.md)"
                )
        if self.router == "roco" and self.router_config.vcs_per_port != 3:
            raise ValueError(
                "the RoCo router has 3 VCs per port (Table 1's classes), "
                f"not {self.router_config.vcs_per_port}"
            )
        if self.router == "path_sensitive" and self.router_config.vcs_per_port != 3:
            raise ValueError(
                "the Path-Sensitive router has 3 VCs per path set (one per "
                f"arrival direction), not {self.router_config.vcs_per_port}"
            )
        # Imported here: repro.traffic.base imports this module.
        import repro.traffic as registry

        if self.traffic not in registry.TRAFFIC_CLASSES:
            raise ValueError(
                f"unknown traffic pattern {self.traffic!r}; "
                f"choose from {sorted(registry.TRAFFIC_CLASSES)}"
            )
        nodes = self.num_nodes
        if self.traffic in BIT_PERMUTATIONS and nodes & (nodes - 1):
            raise ValueError(
                f"{self.traffic} traffic needs a power-of-two node count, "
                f"got {nodes}"
            )

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    @property
    def total_packets(self) -> int:
        return self.warmup_packets + self.measure_packets

    @property
    def packet_injection_rate(self) -> float:
        """Per-node packet generation probability per cycle."""
        return self.injection_rate / self.flits_per_packet

    def to_payload(self) -> dict:
        """Canonical plain-JSON description; what ``job_key`` hashes.

        ``backend`` and ``shards`` are bit-identical to the default run
        and ``audit`` only observes it, so sharing its cache entry would
        be sound — but a conformance regression must not hide behind a
        cache hit on the reference record, and an audited job must be
        audited.  Emitted off-default, each gets its own key while every
        default-run key stays what it always was.
        """
        payload = _emit(self, _SIM_ALWAYS, _SIM_SPARSE)
        payload["routing"] = self.routing.value
        payload["router_config"] = self.router_config.to_payload()
        if self.shards is not None:
            payload["shards"] = list(self.shards)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "SimulationConfig":
        """Inverse of :meth:`to_payload`; absent fields take their
        defaults, an unknown one raises ``ValueError`` naming it."""
        reject_unknown("config", payload, _SIM_KNOWN)
        params = dict(payload)
        if params.get("router_config") is not None:
            params["router_config"] = RouterConfig.from_payload(
                params["router_config"]
            )
        return cls(**params)


_SIM_KNOWN, _SIM_ALWAYS, _SIM_SPARSE = _codec_fields(SimulationConfig, last="seed")
_SIM_INTS = _int_fields(SimulationConfig)
