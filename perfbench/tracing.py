"""Span recording from outside the program.

The benchmark owns its tracing: nothing under ``src/`` knows about it.
A :class:`Tracer` replaces the layers' public callables with timing
wrappers (class attributes for methods, module bindings for functions),
only for the traced pass, and restores them afterwards.  Every call
through a wrapped boundary is a span: name, start, end, the span that
caused it (the innermost open span of the same thread) and the id of the
operation it belongs to.

A layer's *self time* is its span minus the part its child spans cover.
Totals (calls, inclusive seconds, self seconds) are kept for every span;
the span records themselves are kept in memory only up to
:data:`SPAN_CAP` per name, because a traced 8x8 round crosses the router
boundaries several million times.  Both are written out at exit.
"""

from __future__ import annotations

import itertools
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

#: Span records kept per span name; totals always cover every call.
SPAN_CAP = 300


class _ThreadState:
    __slots__ = ("stack", "totals", "spans", "op", "root_s")

    def __init__(self) -> None:
        self.stack: list[list] = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.op: str | None = None
        #: Seconds of parentless spans opened inside an operation block.
        self.root_s = 0.0


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: (owner, attribute, original value) in installation order.
        self._patches: list[tuple] = []

    # -- per-thread state ----------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    @contextmanager
    def operation(self, op: str):
        """Spans opened by this thread inside the block belong to ``op``."""
        state = self._state()
        previous, state.op = state.op, op
        try:
            yield
        finally:
            state.op = previous

    # -- wrapping ------------------------------------------------------

    def _wrapper(
        self, func, base: str, op_from=None, observe=None, suffix_from=None
    ):
        """``func`` timed as span ``base``.

        ``op_from(args, result)`` names the operation for spans whose
        thread cannot know it (server-side spans are keyed by job key);
        ``observe(args, result)`` lets a boundary count what crossed it;
        ``suffix_from(args, kwargs)`` splits one boundary into several
        span names (one per shard tile).
        """
        state_of = self._state
        ids = self._ids

        def traced(*args, **kwargs):
            name = base if suffix_from is None else base + suffix_from(args, kwargs)
            state = state_of()
            stack = state.stack
            # [child seconds, span id, start]
            frame = [0.0, next(ids), perf_counter()]
            stack.append(frame)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                child, span_id, start = frame
                duration = end - start
                parent = 0
                if stack:
                    top = stack[-1]
                    top[0] += duration
                    parent = top[1]
                elif state.op is not None:
                    state.root_s += duration
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - child
                if totals[0] <= SPAN_CAP:
                    op = state.op
                    if op_from is not None:
                        op = op_from(args, result) or op
                    state.spans.append(
                        (span_id, name, start, end, parent, op)
                    )
                if observe is not None:
                    observe(args, result)

        traced.__wrapped__ = func
        return traced

    def wrap_method(self, cls, attr: str, name: str, **hooks) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it."""
        original = cls.__dict__.get(attr)
        if original is None:
            return
        if isinstance(original, classmethod):
            wrapped = classmethod(
                self._wrapper(original.__func__, name, **hooks)
            )
        elif isinstance(original, staticmethod):
            wrapped = staticmethod(
                self._wrapper(original.__func__, name, **hooks)
            )
        else:
            wrapped = self._wrapper(original, name, **hooks)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def wrap_function(self, func, name: str, **hooks) -> None:
        """Wrap a module-level function in every module that binds it.

        ``from x import f`` copies the binding, so the defining module
        alone is not enough: each importer holds its own reference.
        """
        wrapped = self._wrapper(func, name, **hooks)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace or not getattr(module, "__name__", "").startswith(
                ("repro", "perfbench")
            ):
                continue
            for attr, value in list(namespace.items()):
                if value is func:
                    self._patches.append((module, attr, func))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds), all threads."""
        merged: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, self_s) in state.totals.items():
                into = merged.setdefault(name, [0, 0.0, 0.0])
                into[0] += calls
                into[1] += total
                into[2] += self_s
        return {name: tuple(values) for name, values in merged.items()}

    def root_seconds(self) -> float:
        """Seconds covered by the outermost spans of every operation."""
        with self._lock:
            return sum(state.root_s for state in self._states)

    def spans(self) -> list[dict]:
        with self._lock:
            states = list(self._states)
        rows = [span for state in states for span in state.spans]
        rows.sort(key=lambda span: span[2])
        return [
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "op": op,
            }
            for span_id, name, start, end, parent, op in rows
        ]


class Totals:
    """Read access to :meth:`Tracer.totals` with sums over name groups."""

    def __init__(self, totals: dict[str, tuple[int, float, float]]) -> None:
        self._totals = totals

    def _sum(self, index: int, names) -> float:
        return sum(self._totals.get(n, (0, 0.0, 0.0))[index] for n in names)

    def calls(self, *names: str) -> int:
        return int(self._sum(0, names))

    def total_s(self, *names: str) -> float:
        return self._sum(1, names)

    def self_s(self, *names: str) -> float:
        return self._sum(2, names)

    def mean(self, name: str, scale: float = 1.0) -> float:
        """Mean inclusive time of one call, in ``1/scale`` seconds."""
        calls, total, _ = self._totals.get(name, (0, 0.0, 0.0))
        return total / calls * scale if calls else 0.0

    def matching(self, prefix: str) -> list[str]:
        return sorted(n for n in self._totals if n.startswith(prefix))
