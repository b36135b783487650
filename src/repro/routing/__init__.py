"""Routing algorithms: XY (DOR), oblivious XY-YX, and minimal adaptive."""

from repro.core.types import ADAPTIVE, XY, XY_YX, RoutingMode
from repro.routing.adaptive import AdaptiveRouting
from repro.routing.base import (
    RoutingAlgorithm,
    direction_class,
    path_nodes_xy,
    path_nodes_yx,
    productive_directions,
    xy_direction,
    yx_direction,
)
from repro.routing.xy import XYRouting
from repro.routing.xyyx import XYYXRouting, choose_variant

_ALGORITHMS = {
    XY: XYRouting,
    XY_YX: XYYXRouting,
    ADAPTIVE: AdaptiveRouting,
}


def make_routing(mode: RoutingMode | str) -> RoutingAlgorithm:
    """Instantiate the routing algorithm for ``mode``."""
    if isinstance(mode, str):
        mode = RoutingMode(mode)
    return _ALGORITHMS[mode]()


__all__ = [
    "AdaptiveRouting",
    "RoutingAlgorithm",
    "XYRouting",
    "XYYXRouting",
    "choose_variant",
    "direction_class",
    "make_routing",
    "path_nodes_xy",
    "path_nodes_yx",
    "productive_directions",
    "xy_direction",
    "yx_direction",
]
