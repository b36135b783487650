"""Every top-level definition in ``src/repro`` has a reader, and none
is a test seam.

A top-level ``def`` or ``class`` that no file under src/, tests/,
benchmarks/, examples/ or perfbench/ loads by name is dead: nothing runs
it, and nothing would notice it break.  A load is a name or an attribute
read, or a ``"module:function"`` string (the lazy entries of the command
line's ``SUBCOMMANDS``).  Dunder names are exempt.

Fault injection for the job engine is a job function in tests/chaos.py;
no code under src/ may name chaos (prose and comments may).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples", "perfbench")
LAZY_ENTRY = re.compile(r"[\w.]+:(\w+)")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parsed(tree: str):
    for path in sorted((ROOT / tree).rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def loaded_names() -> set[str]:
    names = set()
    for tree in TREES:
        for _, module in parsed(tree):
            for node in ast.walk(module):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    entry = LAZY_ENTRY.fullmatch(node.value)
                    if entry:
                        names.add(entry[1])
    return names


def test_every_top_level_definition_is_loaded_somewhere():
    loaded = loaded_names()
    dead = [
        f"{path.relative_to(ROOT)}:{node.name}"
        for path, module in parsed("src/repro")
        for node in module.body
        if isinstance(node, DEFINITIONS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in loaded
    ]
    assert dead == []


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
