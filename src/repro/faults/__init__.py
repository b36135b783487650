"""Fault model: populations, one fault engine for static faults and
runtime campaigns, and recovery."""

from repro.faults.injector import (
    ComponentFault,
    apply_faults,
    module_vc_count,
    random_faults,
)
from repro.faults.model import (
    CLASSIFICATION,
    CRITICAL_FAULT_COMPONENTS,
    NONCRITICAL_FAULT_COMPONENTS,
    Centricity,
    Component,
    FaultClass,
    Pathway,
    Regime,
)
from repro.faults.reachability import ReachabilityMap
from repro.faults.recovery import recovery_mechanism
from repro.faults.runtime import RuntimeFaultEngine
from repro.faults.schedule import FaultEvent, FaultSchedule

__all__ = [
    "CLASSIFICATION",
    "CRITICAL_FAULT_COMPONENTS",
    "Centricity",
    "Component",
    "ComponentFault",
    "FaultClass",
    "FaultEvent",
    "FaultSchedule",
    "NONCRITICAL_FAULT_COMPONENTS",
    "Pathway",
    "ReachabilityMap",
    "Regime",
    "RuntimeFaultEngine",
    "apply_faults",
    "module_vc_count",
    "random_faults",
    "recovery_mechanism",
]
