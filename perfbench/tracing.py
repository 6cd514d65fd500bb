"""Span tracing for the benchmark's traced run.

`instrument` replaces every binding of every public function of the given
modules with a wrapper that records one span per call, so a function
imported elsewhere by name (``from .training import adam_step``) is traced
at each of its bindings.  Spans stay in memory; `summarize` turns them into
per-function inclusive time, self time and call counts, and
`write_chrome_trace` writes them as Chrome trace-event JSON.

Only the standard library is used, so the module is testable on its own.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import types
from collections import defaultdict

# One span is a list [name, start_ns, end_ns, parent_index]; lists keep the
# per-call cost of recording low.
NAME, START, END, PARENT = range(4)


class Tracer:
    """In-memory span recorder with a stack of open spans (one thread)."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self._open: list = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(tracer, args, result) runs on return."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(self, args, result)
            return result

        return traced


def public_functions(module) -> dict:
    """Attribute name -> function for the public functions a module defines."""
    return {attr: value for attr, value in vars(module).items()
            if isinstance(value, types.FunctionType)
            and not attr.startswith("_")
            and value.__module__ == module.__name__}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def instrument(tracer: Tracer, modules, methods=(), after=None):
    """Trace every public function of `modules` at every binding in them.

    `methods` lists (class, attribute) pairs to trace as well; `after` maps
    span names to hooks passed to Tracer.wrap.  Returns (names, undo): the
    sorted traced span names and a function that restores the originals.
    """
    after = after or {}
    wrappers = {}
    for module in modules:
        for fn in public_functions(module).values():
            wrappers[fn] = tracer.wrap(span_name(fn), fn, after.get(span_name(fn)))
    restore = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])
                restore.append((module, attr, value))
    names = {span_name(fn) for fn in wrappers}
    for cls, attr in methods:
        fn = vars(cls)[attr]
        name = span_name(fn)
        setattr(cls, attr, tracer.wrap(name, fn, after.get(name)))
        restore.append((cls, attr, fn))
        names.add(name)

    def undo():
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)

    return sorted(names), undo


def _covered(intervals) -> int:
    """Total length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarize(spans) -> dict:
    """Span name -> {"s", "self_s", "calls"} from closed spans.

    `s` is inclusive time; a span nested inside an open span of the same
    name is not added again, so recursion is not double counted.  `self_s`
    is each span's duration minus the part of its interval that its child
    spans cover.
    """
    children = defaultdict(list)
    for index, sp in enumerate(spans):
        if sp[PARENT] is not None:
            children[sp[PARENT]].append(index)
    table = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for index, sp in enumerate(spans):
        name, start, end = sp[NAME], sp[START], sp[END]
        inner = [(max(spans[c][START], start), min(spans[c][END], end))
                 for c in children[index]]
        row = table[name]
        row["calls"] += 1
        row["self_s"] += (end - start - _covered(inner)) * 1e-9
        parent = sp[PARENT]
        while parent is not None and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent is None:
            row["s"] += (end - start) * 1e-9
    return dict(table)


def write_chrome_trace(path: str, spans) -> None:
    """Write spans as Chrome trace-event JSON (complete "X" events, microseconds)."""
    origin = min((sp[START] for sp in spans), default=0)
    events = [{"name": sp[NAME], "cat": sp[NAME].split(".", 1)[0], "ph": "X",
               "ts": (sp[START] - origin) / 1000.0,
               "dur": (sp[END] - sp[START]) / 1000.0,
               "pid": 1, "tid": 1,
               "args": {"id": index, "parent": sp[PARENT]}}
              for index, sp in enumerate(spans)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                  separators=(",", ":"))
