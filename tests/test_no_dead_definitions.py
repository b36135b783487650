"""Every top-level definition in ``src/repro`` has a production reader,
and none is a test seam.

A top-level ``def`` or ``class`` needs a reader under src/, benchmarks/,
examples/ or perfbench/, outside its own body.  A test is not a reader:
a helper only its own unit test calls is dead code with a test attached,
and a reference the tests compare against belongs in tests/.  A read is
a name or an attribute load, or a ``"module:function"`` string (the lazy
entries of the command line's ``SUBCOMMANDS``).  Dunder names are
exempt.  ``TEST_ONLY`` names the few definitions that stay with tests as
their only reader, each with its reason; an entry that leaves src/ or
gains a production reader fails the guard, so the list cannot go stale.

Fault injection for the job engine is a job function in tests/chaos.py;
no code under src/ may name chaos (prose and comments may).
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READERS = ("src", "benchmarks", "examples", "perfbench")
LAZY_ENTRY = re.compile(r"[\w.]+:(\w+)")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

_BRIDGE = (
    "SoA state bridge (core/soa/state.py), the tests' object-to-SoA oracle; "
    "it goes or moves to tests/ with the decision on the SoA engine"
)
#: Top-level definitions whose only readers are tests, and why each stays.
TEST_ONLY = {
    "encode_state": _BRIDGE,
    "decode_state": _BRIDGE,
    "states_equal": _BRIDGE,
    "state_diff": _BRIDGE,
    "run_cycles": _BRIDGE,
    "replicate": "multi-seed replication, which the paper verdicts are to read",
}


def parsed(tree: str):
    for path in sorted((ROOT / tree).rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def reads(node: ast.AST):
    """Every name ``node`` reads, once per read."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield child.id
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            yield child.attr
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            entry = LAZY_ENTRY.fullmatch(child.value)
            if entry:
                yield entry[1]


def unread_definitions() -> dict[str, str]:
    """``name -> path:name`` of each top-level ``src/repro`` definition
    that nothing under ``READERS`` reads outside the definition itself."""
    production = Counter(
        name for tree in READERS for _, module in parsed(tree) for name in reads(module)
    )
    unread = {}
    for path, module in parsed("src/repro"):
        for node in module.body:
            if not isinstance(node, DEFINITIONS) or (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                continue
            own = sum(1 for name in reads(node) if name == node.name)
            if production[node.name] == own:
                unread[node.name] = f"{path.relative_to(ROOT)}:{node.name}"
    return unread


def test_every_top_level_definition_has_a_production_reader():
    unread = unread_definitions()
    assert [unread[name] for name in sorted(unread) if name not in TEST_ONLY] == []
    # An entry gone from src/, or read by production code now, is stale.
    assert sorted(set(TEST_ONLY) - set(unread)) == []


def code_names(module: ast.Module):
    """Every identifier the code of ``module`` spells: definitions,
    parameters, keywords, names, attributes and imports."""
    for node in ast.walk(module):
        if isinstance(node, DEFINITIONS):
            yield node.name
        elif isinstance(node, (ast.arg, ast.keyword)):
            yield node.arg or ""
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_no_code_in_src_names_chaos():
    named = sorted(
        f"{path.relative_to(ROOT)}:{name}"
        for path, module in parsed("src")
        for name in set(code_names(module))
        if "chaos" in name.lower()
    )
    assert named == []
