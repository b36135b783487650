"""The Row-Column (RoCo) Decoupled Router — the paper's contribution."""

from repro.routers.roco.module import MODULE_DIRECTIONS, RoCoModule
from repro.routers.roco.path_set import (
    COLUMN,
    ROW,
    VCSpec,
    classify_vc,
    table1_summary,
    vc_configuration,
)
from repro.routers.roco.router import RoCoRouter

__all__ = [
    "COLUMN",
    "MODULE_DIRECTIONS",
    "ROW",
    "RoCoModule",
    "RoCoRouter",
    "VCSpec",
    "classify_vc",
    "table1_summary",
    "vc_configuration",
]
