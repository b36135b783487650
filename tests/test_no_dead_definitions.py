"""Every definition in ``src/repro`` has a production reader, and none is
a test seam.

A top-level ``def`` or ``class`` needs a reader under src/, benchmarks/,
examples/ or perfbench/, outside its own body.  A test is not a reader:
a helper only its own unit test calls is dead code with a test attached,
and a reference the tests compare against belongs in tests/.  A read is
a name or an attribute load, or a ``"module:function"`` string (the lazy
entries of the command line's ``SUBCOMMANDS``).  Dunder names are
exempt.

A method or property of a ``src/repro`` class needs the same: a read as
an attribute, or its name as a string (``getattr``, a tracer's
``wrap_method``), outside its own body.  Exempt are dunders, abstract
methods, names more than one ``src/repro`` class defines (an override is
read through its base's name), and the members of a class with a base
from outside repro other than ``ABC`` and ``Generic`` (the framework
calls them: ``_Handler.log_message``).

``TEST_ONLY`` names the few definitions that stay with tests as their
only reader, each with its reason (a member as ``Class.member``); an
entry that leaves src/ or gains a production reader fails the guard, so
the list cannot go stale.

Fault injection for the job engine is a job function in tests/chaos.py;
no code under src/ may name chaos (prose and comments may).
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

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
    "FaultSchedule.to_json": (
        "docs/fault-model.md names it as the way to write a --fault-schedule file"
    ),
    "FaultSchedule.at_cycle": (
        "README's fault-campaign example builds its schedule with it"
    ),
    "ServeClient.healthy": "the client half of GET /healthz (docs/serving.md)",
}
#: Bases from outside repro that call no member of a subclass by name.
INERT_BASES = {"ABC", "Generic"}


def parsed(tree: str, root: Path = ROOT):
    for path in sorted((root / tree).rglob("*.py")):
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


def unread_definitions(root: Path = ROOT) -> dict[str, str]:
    """``name -> path:name`` of each top-level ``src/repro`` definition
    that nothing under ``READERS`` reads outside the definition itself."""
    production = Counter(
        name
        for tree in READERS
        for _, module in parsed(tree, root)
        for name in reads(module)
    )
    unread = {}
    for path, module in parsed("src/repro", root):
        for node in module.body:
            if not isinstance(node, DEFINITIONS) or (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                continue
            own = sum(1 for name in reads(node) if name == node.name)
            if production[node.name] == own:
                unread[node.name] = f"{path.relative_to(root)}:{node.name}"
    return unread


def member_reads(node: ast.AST):
    """Every member name ``node`` reads: attribute loads and strings."""
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            yield child.attr
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            entry = LAZY_ENTRY.fullmatch(child.value)
            yield entry[1] if entry else child.value


def base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Subscript):  # Generic[T]
        node = node.value
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def unread_members(root: Path = ROOT) -> dict[str, str]:
    """``Class.member -> path:Class.member`` of each method or property of
    a ``src/repro`` class that nothing under ``READERS`` reads outside the
    member itself, exemptions aside (module docstring)."""
    production = Counter(
        name
        for tree in READERS
        for _, module in parsed(tree, root)
        for name in member_reads(module)
    )
    classes = [
        (path, node)
        for path, module in parsed("src/repro", root)
        for node in ast.walk(module)
        if isinstance(node, ast.ClassDef)
    ]
    ours = {node.name for _, node in classes} | INERT_BASES

    def members(cls: ast.ClassDef):
        return [node for node in cls.body if isinstance(node, DEFINITIONS[:2])]

    definers = Counter(
        name for _, cls in classes for name in {node.name for node in members(cls)}
    )
    unread = {}
    for path, cls in classes:
        if any(base_name(base) not in ours for base in cls.bases):
            continue
        for node in members(cls):
            name = node.name
            if (
                (name.startswith("__") and name.endswith("__"))
                or definers[name] > 1
                or any(base_name(d) == "abstractmethod" for d in node.decorator_list)
            ):
                continue
            own = sum(1 for read in member_reads(node) if read == name)
            if production[name] == own:
                key = f"{cls.name}.{name}"
                unread[key] = f"{path.relative_to(root)}:{key}"
    return unread


def test_every_top_level_definition_has_a_production_reader():
    unread = unread_definitions()
    assert [unread[name] for name in sorted(unread) if name not in TEST_ONLY] == []
    # An entry gone from src/, or read by production code now, is stale.
    assert sorted({name for name in TEST_ONLY if "." not in name} - set(unread)) == []


def test_every_member_has_a_production_reader():
    unread = unread_members()
    assert [unread[name] for name in sorted(unread) if name not in TEST_ONLY] == []
    assert sorted({name for name in TEST_ONLY if "." in name} - set(unread)) == []


QUEUE = "class Queue:\n    def peek(self):\n        return 0\n"
ABSTRACT = (
    "from abc import ABC, abstractmethod\n"
    "class Queue(ABC):\n    @abstractmethod\n    def peek(self): ...\n"
)
#: case -> (files of a miniature repo, what the guard must call unread).
#: Each case is one rule of the module docstring.
GUARD_CASES = {
    "unread-function": ({"src/repro/lib.py": "def helper():\n    pass\n"},
                        {"helper"}),
    "function-read-by-name": (
        {"src/repro/lib.py": "def helper():\n    pass\n",
         "examples/demo.py": "from repro.lib import helper\nhelper()\n"},
        set(),
    ),
    "function-as-a-lazy-entry": (
        {"src/repro/lib.py": "def helper():\n    pass\n",
         "src/repro/app.py": 'ENTRIES = {"help": "repro.lib:helper"}\n'},
        set(),
    ),
    "function-read-only-by-itself": (
        {"src/repro/lib.py": "def helper(n):\n    return helper(n - 1)\n"},
        {"helper"},
    ),
    "unread-method": ({"src/repro/lib.py": QUEUE, "src/repro/app.py": "Queue\n"},
                      {"Queue.peek"}),
    "method-read-as-an-attribute": (
        {"src/repro/lib.py": QUEUE, "perfbench/app.py": "Queue().peek()\n"},
        set(),
    ),
    "method-named-in-a-string": (
        {"src/repro/lib.py": QUEUE,
         "src/repro/app.py": 'getattr(Queue(), "peek")()\n'},
        set(),
    ),
    "method-read-only-by-a-test": (
        {"src/repro/lib.py": QUEUE, "src/repro/app.py": "Queue\n",
         "tests/test_lib.py": "Queue().peek()\n"},
        {"Queue.peek"},
    ),
    "method-read-only-by-itself": (
        {"src/repro/lib.py": QUEUE.replace("return 0", "return self.peek()"),
         "src/repro/app.py": "Queue\n"},
        {"Queue.peek"},
    ),
    "unread-property": (
        {"src/repro/lib.py": "class Queue:\n    @property\n    def size(self):\n"
                             "        return 0\n",
         "src/repro/app.py": "Queue\n"},
        {"Queue.size"},
    ),
    "dunder-exempt": (
        {"src/repro/lib.py": QUEUE.replace("peek", "__len__"),
         "src/repro/app.py": "Queue\n"},
        set(),
    ),
    "abstract-exempt": ({"src/repro/lib.py": ABSTRACT, "src/repro/app.py": "Queue\n"},
                        set()),
    "override-exempt": (
        {"src/repro/lib.py": QUEUE + QUEUE.replace("Queue:", "Stack(Queue):"),
         "src/repro/app.py": "Stack\n"},
        set(),
    ),
    "outside-base-exempt": (
        {"src/repro/lib.py": "import http.server\n"
         + QUEUE.replace("Queue:", "Queue(http.server.BaseHTTPRequestHandler):"),
         "src/repro/app.py": "Queue\n"},
        set(),
    ),
    "inert-base-not-exempt": (
        {"src/repro/lib.py": "from abc import ABC\n"
         + QUEUE.replace("Queue:", "Queue(ABC):"),
         "src/repro/app.py": "Queue\n"},
        {"Queue.peek"},
    ),
}


@pytest.mark.parametrize("case", GUARD_CASES)
def test_the_guard_applies_its_rules(case, tmp_path):
    files, expected = GUARD_CASES[case]
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    found = {**unread_definitions(tmp_path), **unread_members(tmp_path)}
    assert set(found) == expected
    assert all(found[key].startswith("src/repro/lib.py:") for key in found)


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
