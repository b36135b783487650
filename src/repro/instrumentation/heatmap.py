"""ASCII heatmaps of mesh-shaped data.

Renders ``{NodeId: value}`` maps as a mesh-aligned grid, either as
numbers or as shade characters — enough to see a congestion tree or a
dead router at a glance in a terminal.
"""

from __future__ import annotations

from repro.core.types import NodeId

#: Shade ramp from idle to saturated.
SHADES = " .:-=+*#%@"


def render_shaded(
    values: dict[NodeId, float],
    width: int,
    height: int,
    maximum: float | None = None,
) -> str:
    """Shade-character grid normalised to ``maximum`` (default: data max)."""
    if maximum is None:
        maximum = max(values.values(), default=1.0) or 1.0
    lines = []
    for y in range(height):
        row = []
        for x in range(width):
            value = values.get(NodeId(x, y), 0.0)
            level = min(len(SHADES) - 1, int(value / maximum * (len(SHADES) - 1)))
            row.append(SHADES[level] * 2)
        lines.append("".join(row))
    return "\n".join(lines)


def render_legend(maximum: float) -> str:
    return f"scale: '{SHADES[0]}' = 0.0  ..  '{SHADES[-1]}' = {maximum:.2f}"
