"""Run instrumentation: link/latency/drop probes, the flight recorder
and shaded ASCII heatmaps."""

from repro.instrumentation.heatmap import render_legend, render_shaded
from repro.instrumentation.trace import (
    EventKind,
    FlightRecorder,
    HopTiming,
    TraceEvent,
)
from repro.instrumentation.probes import (
    DropProbe,
    DropRecord,
    LatencyMatrixProbe,
    LinkUtilizationProbe,
)

__all__ = [
    "DropProbe",
    "EventKind",
    "FlightRecorder",
    "HopTiming",
    "TraceEvent",
    "DropRecord",
    "LatencyMatrixProbe",
    "LinkUtilizationProbe",
    "render_legend",
    "render_shaded",
]
