"""Fault populations and the Table-3 classifier (paper Section 5.4).

Static faults strike before any traffic moves ("we assumed permanent
failures to be handled statically") at randomly chosen distinct routers,
through the same :class:`~repro.faults.runtime.RuntimeFaultEngine` that
strikes mid-run faults.  The *same* fault population is applied to every
architecture under comparison; only the reaction
(:func:`fault_effect`) differs:

* generic / Path-Sensitive routers — any component fault takes the whole
  node off-line (their operation is unified across components);
* RoCo — critical/router-centric faults isolate one module; the rest are
  absorbed by hardware recycling (double routing, virtual queuing, SA
  offloading onto the VA arbiters).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from repro.core.config import RouterConfig, reject_unknown
from repro.core.network import Network
from repro.core.types import NodeId
from repro.faults.model import (
    CLASSIFICATION,
    CRITICAL_FAULT_COMPONENTS,
    NONCRITICAL_FAULT_COMPONENTS,
    Component,
)
from repro.routers.roco.path_set import COLUMN, ROW


@dataclass(frozen=True)
class ComponentFault:
    """One permanent hardware fault.

    ``module`` picks the Row- or Column-Module for architectures with
    that granularity (others ignore it); ``vc_position`` selects the
    affected buffer for BUFFER faults.
    """

    node: NodeId
    component: Component
    module: str = ROW
    vc_position: int = 0

    def to_payload(self) -> dict:
        """Plain-JSON form (cache keys, schedule files, job files)."""
        return {
            "node": [self.node.x, self.node.y],
            "component": self.component.value,
            "module": self.module,
            "vc_position": self.vc_position,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ComponentFault":
        """Inverse of :meth:`to_payload`; ``module`` and ``vc_position``
        may be absent, an unknown key raises ``ValueError`` naming it."""
        reject_unknown("fault", payload, _FAULT_FIELDS)
        x, y = payload["node"]
        return cls(
            node=NodeId(int(x), int(y)),
            component=Component(payload["component"]),
            module=payload.get("module", ROW),
            vc_position=int(payload.get("vc_position", 0)),
        )


_FAULT_FIELDS = frozenset(f.name for f in fields(ComponentFault))


def module_vc_count(router_config: RouterConfig | None = None) -> int:
    """VC buffers per RoCo module: two input ports x ``vcs_per_port``."""
    if router_config is None:
        router_config = RouterConfig()
    return 2 * router_config.vcs_per_port


def random_faults(
    nodes: list[NodeId],
    count: int,
    rng: random.Random,
    critical: bool,
    exclude: set[NodeId] | None = None,
    *,
    router_config: RouterConfig | None = None,
) -> list[ComponentFault]:
    """Draw ``count`` faults at distinct routers.

    ``critical`` selects the Figure-11 population (router-centric /
    critical pathway) versus the Figure-12 one (message-centric /
    non-critical).  ``vc_position`` for BUFFER faults is drawn over the
    per-module VC count implied by ``router_config`` (the default
    configuration's bound keeps historical seeds reproducible).
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    pool = [n for n in nodes if exclude is None or n not in exclude]
    if count > len(pool):
        raise ValueError(f"cannot place {count} faults on {len(pool)} routers")
    components = (
        CRITICAL_FAULT_COMPONENTS if critical else NONCRITICAL_FAULT_COMPONENTS
    )
    vc_bound = module_vc_count(router_config)
    chosen = rng.sample(pool, count)
    return [
        ComponentFault(
            node=node,
            component=rng.choice(components),
            module=rng.choice((ROW, COLUMN)),
            vc_position=rng.randrange(vc_bound),
        )
        for node in chosen
    ]


def fault_effect(router, fault: ComponentFault) -> tuple:
    """Table 3, read once: what ``fault`` does to ``router``, as a key.

    ``("node", node)`` — generic / Path-Sensitive operate unified, so
    any component fault takes the node off-line.  For RoCo,
    ``("module", node, module)`` when :data:`CLASSIFICATION` says the
    component blocks its module; otherwise the component hardware
    recycling absorbs: ``("rc" | "sa", node, module)`` or
    ``("buffer", node, module, vc_position)``.  The key also names the
    effect for the runtime engine's overlap reference counts.
    """
    modules = getattr(router, "modules", None)
    reaction = _reaction(modules is not None, fault)
    if reaction == "node":
        return ("node", fault.node)
    key = (reaction, fault.node, fault.module)
    if reaction == "buffer":
        return (*key, fault.vc_position % len(modules[fault.module].all_vcs()))
    return key


def _reaction(modular: bool, fault: ComponentFault) -> str:
    """The first item of :func:`fault_effect`'s key, for a router with
    RoCo's modules or without."""
    if not modular:
        return "node"
    if CLASSIFICATION[fault.component].blocks_roco_module:
        return "module"
    return fault.component.value


#: :func:`describe_fault`'s words for each reaction.
_REACTION_WORDS = {
    "node": "node off-line",
    "module": "module off-line",
    "rc": "double routing",
    "sa": "SA offloaded onto the VA arbiters",
    "buffer": "virtual queuing",
}


def describe_fault(fault: ComponentFault, architecture: str) -> str:
    """``fault`` and what Table 3 does with it on ``architecture``, as the
    CLI prints it: ``"rc at (0,3): node off-line"`` for a generic or
    Path-Sensitive router, ``"rc at (0,3) (row module): double routing"``
    for RoCo."""
    reaction = _reaction(architecture == "roco", fault)
    where = "" if reaction == "node" else f" ({fault.module} module)"
    return (
        f"{fault.component.value} at {fault.node}{where}: "
        f"{_REACTION_WORDS[reaction]}"
    )


def apply_faults(network: Network, faults: list[ComponentFault]) -> None:
    """Strike ``faults`` on ``network`` as permanent faults at cycle 0.

    A loop over one :class:`~repro.faults.runtime.RuntimeFaultEngine`,
    the only code that marks a fault; it works before or after
    :meth:`Network.wire`.  The simulator strikes its static faults
    through its own engine, so nothing in ``src/`` calls this.  It stays
    for one reason: perfbench's frozen ``layers.py`` imports it.  It goes
    when that import does.
    """
    from repro.faults.runtime import RuntimeFaultEngine  # import cycle guard

    engine = RuntimeFaultEngine(network)
    for fault in faults:
        engine.apply(fault, cycle=0)
