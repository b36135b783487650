"""Router architectures: generic 2-stage VC, Path-Sensitive, and RoCo."""

from repro.routers.base import EJECT, BaseRouter, OutputPort
from repro.routers.generic import GenericRouter
from repro.routers.path_sensitive import PathSensitiveRouter
from repro.routers.quadrants import quadrant_of
from repro.routers.roco.router import RoCoRouter

ROUTER_CLASSES = {
    "generic": GenericRouter,
    "path_sensitive": PathSensitiveRouter,
    "roco": RoCoRouter,
}


def make_router(architecture: str, node, network):
    """Instantiate a router of the named architecture."""
    try:
        cls = ROUTER_CLASSES[architecture]
    except KeyError:
        raise ValueError(f"unknown router architecture {architecture!r}") from None
    return cls(node, network)


__all__ = [
    "EJECT",
    "BaseRouter",
    "GenericRouter",
    "OutputPort",
    "PathSensitiveRouter",
    "ROUTER_CLASSES",
    "RoCoRouter",
    "make_router",
    "quadrant_of",
]
