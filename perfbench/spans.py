"""In-memory spans for the traced benchmark run, and the arithmetic on them.

The traced run replaces the library's public functions with wrappers that
open a span on entry and close it on return. A wrapper is installed on every
module binding through which a caller reaches the function (``em_pml`` is
bound in both ``pml_em`` and ``dist_est``, for instance), so nested calls
inside the library are traced too. Nothing under ``src/`` changes, and the
untraced run installs nothing.

A span records its name, start, end, parent span, op id and thread id.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread", "attrs")

    def __init__(self, id, name, start, end=None, parent=None, op=None, thread=None, attrs=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.thread = thread
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "thread": self.thread,
                "attrs": self.attrs}


class Tracer:
    """Collects spans from the thread that created it and from worker threads.

    A span opened on a worker thread with nothing open on that thread is
    caused by whatever the creating thread has open at that moment: the
    bench harness's pool threads run trials on behalf of the blocked
    ``run_experiment`` call.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.enabled = True
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        cause = stack or self._main_stack
        parent = cause[-1].id if cause else None
        span = Span(next(self._ids), name, time.perf_counter(), parent=parent,
                    op=self.op, thread=threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)


def _wrap(tracer: Tracer, name: str, fn, describe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if describe is not None:
            span.name, span.attrs = describe(name, args, kwargs, result)
        return result
    return traced


@contextmanager
def installed(tracer: Tracer, targets, package: str = "pmllab"):
    """Wrap each ``(module, function, describe)`` target on every binding of
    the function in the loaded modules of ``package``; undo on exit.

    ``describe(name, args, kwargs, result)`` returns the span's final name
    and attributes, or is None to keep the name and record no attributes.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    patched = []
    try:
        for mod_name, fn_name, describe in targets:
            orig = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = _wrap(tracer, f"{mod_name}.{fn_name}", orig, describe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, orig))
        yield tracer
    finally:
        for mod, attr, orig in reversed(patched):
            setattr(mod, attr, orig)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans) -> dict:
    kids: dict = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    return kids


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals.

    Children that ran on other threads may overlap each other; the union
    counts the time they cover once.
    """
    kids = children_of(spans)
    return {s.id: s.duration - union_length((c.start, c.end) for c in kids.get(s.id, ()))
            for s in spans}


def parallel_excess(spans) -> float:
    """Sum over spans of (children's summed durations - their union).

    Zero when no two children of a span overlap. It is the amount by which
    summed self times exceed wall time because work ran concurrently.
    """
    kids = children_of(spans)
    excess = 0.0
    for s in spans:
        cs = kids.get(s.id)
        if cs:
            excess += sum(c.duration for c in cs) - union_length((c.start, c.end) for c in cs)
    return excess


def child_overlap(parent: Span, spans) -> tuple[float, float]:
    """(summed child durations, union of child intervals) of one span."""
    cs = [s for s in spans if s.parent == parent.id]
    return sum(c.duration for c in cs), union_length((c.start, c.end) for c in cs)


def accounting_error(root: Span, spans) -> float:
    """How far self times plus glue miss the op's duration, in seconds.

    ``root`` is the op's own span; its self time is the benchmark glue.
    ``spans`` are every span of the op, the root included. Any nonzero
    result means a span lies outside its parent or lost its parent.
    """
    by_id = {s.id: s for s in spans}
    worst = 0.0
    for s in spans:
        if s is root:
            continue
        parent = by_id.get(s.parent)
        if parent is None:
            return float("inf")
        worst = max(worst, parent.start - s.start, s.end - parent.end)
    total_self = sum(self_times(spans).values())
    return max(worst, abs(total_self - parallel_excess(spans) - root.duration))
