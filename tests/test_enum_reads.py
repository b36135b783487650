"""No function body under ``src/repro`` reads an enum member through its
class.

``Direction.LOCAL`` inside a function costs a slow attribute lookup on
every execution: ``EnumType`` defines ``__getattr__``, so the read takes
CPython's unspecialised path (~120 ns against ~10 ns for a global).  The
members are exported as module constants by ``repro.core.types``
(``NORTH .. LOCAL``, ``HEAD .. TAIL``, ``XY .. ADAPTIVE``) and the cycle
loop reads those (docs/activity-scheduling.md, "Interpreter costs").

The guard fails on a ``Direction.<member>``, ``FlitType.<member>`` or
``RoutingMode.<member>`` load inside a function or lambda body, however
deeply nested.  Module-level and class-level tables are built once and
stay allowed, as do default values (evaluated at definition), calls
such as ``Direction(d)`` and prose in strings.
"""

import ast
from pathlib import Path

import pytest

from repro.core.types import Direction, FlitType, RoutingMode

ROOT = Path(__file__).resolve().parents[1]
MEMBERS = {
    cls.__name__: frozenset(cls.__members__)
    for cls in (Direction, FlitType, RoutingMode)
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _member_read(node: ast.AST) -> str | None:
    """``"Direction.LOCAL"`` for a member load, else None."""
    if not isinstance(node, ast.Attribute) or not isinstance(node.ctx, ast.Load):
        return None
    owner = node.value
    name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
    if node.attr in MEMBERS.get(name, ()):
        return f"{name}.{node.attr}"
    return None


def slow_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, "Enum.MEMBER")`` for every member load in a function or
    lambda body of ``tree``."""
    found = []

    def visit(node: ast.AST, in_body: bool) -> None:
        if isinstance(node, FUNCTIONS + (ast.Lambda,)):
            # Decorators and defaults run once, where the def stands.
            for child in getattr(node, "decorator_list", ()):
                visit(child, in_body)
            visit(node.args, in_body)
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                visit(child, True)
            return
        if in_body:
            read = _member_read(node)
            if read is not None:
                found.append((node.lineno, read))
        for child in ast.iter_child_nodes(node):
            visit(child, in_body)

    visit(tree, False)
    return found


#: Miniature sources and the reads the guard must report in each.
MINIATURES = {
    "function": ("def f(d):\n    return d is Direction.LOCAL\n", ["Direction.LOCAL"]),
    "lambda": ("head = lambda f: f.ftype is FlitType.HEAD\n", ["FlitType.HEAD"]),
    "method": (
        "class R:\n    def step(self):\n        return RoutingMode.XY_YX\n",
        ["RoutingMode.XY_YX"],
    ),
    "nested-qualified": (
        "def f():\n    def g():\n        return types.Direction.EAST\n    return g\n",
        ["Direction.EAST"],
    ),
    "comprehension-in-body": (
        "def f(ds):\n    return [d for d in ds if d is not Direction.WEST]\n",
        ["Direction.WEST"],
    ),
    "module-table": ("PORTS = (Direction.NORTH, Direction.EAST)\n", []),
    "class-table": ("class XYRouting:\n    mode = RoutingMode.XY\n", []),
    "default-value": ("def f(d=Direction.LOCAL):\n    return d\n", []),
    "call-and-members": (
        "def f(i):\n    return Direction(i), Direction.__members__, Direction\n",
        [],
    ),
    "prose": ('def f():\n    """Returns ``Direction.LOCAL``."""\n', []),
    "not-a-member": ("def f(p):\n    return p.Direction.name\n", []),
}


@pytest.mark.parametrize("row", sorted(MINIATURES))
def test_guard_on_miniature(row):
    source, want = MINIATURES[row]
    assert [read for _, read in slow_reads(ast.parse(source))] == want


def test_no_enum_member_reads_in_function_bodies():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {read}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for line, read in slow_reads(ast.parse(path.read_text(), str(path)))
    ]
    assert not offenders, "read the module constant instead:\n" + "\n".join(
        offenders
    )


def test_guard_bites_on_a_seeded_read():
    """A ``Direction.LOCAL`` read seeded into a real hot function fails."""
    path = ROOT / "src" / "repro" / "routers" / "base.py"
    source = path.read_text()
    hot = "    def _output_alive(self, d: Direction) -> bool:\n"
    assert hot in source
    seeded = source.replace(hot, hot + "        _ = Direction.LOCAL\n")
    assert not slow_reads(ast.parse(source))
    assert [read for _, read in slow_reads(ast.parse(seeded))] == ["Direction.LOCAL"]
