"""Span tracer that times premarshal's layers from outside the package.

``Tracer.install`` replaces each function in ``TRACED`` by a timing wrapper,
in its own module and under every name another premarshal module imported
it as (``astar.legal_moves``, ``exact.apply_move``, ``verify.build_layout``
and so on), because those callers look the name up in their own globals.
``Tracer.uninstall`` puts the originals back.

Spans are aggregated per calling context: every call of function ``f``
made while span ``p`` is open lands in the one span ``(p, f)``, which keeps
its call count, total time, first start, last end and the length of its
latest call.  That keeps the millions of per-child calls of an A* run in a
few dozen spans while self time, the span's time minus its children's,
stays exact.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

#: (module, function) pairs wrapped in traced runs.  Helpers called once per
#: generated move or per lane (``move_distance``, ``blocking_count``,
#: ``lane_profile`` ...) are left out: a wrapper there would cost more than
#: the helper and distort the spans of their callers.
TRACED = (
    ("generate", "generate"),
    ("layout", "build_layout"),
    ("layout", "all_pairs_distances"),
    ("fixing", "optimal_assignments"),
    ("fixing", "select_assignment"),
    ("fixing", "to_virtual_lanes"),
    ("pipeline", "prepare"),
    ("model", "legal_moves"),
    ("model", "apply_move"),
    ("model", "state_key"),
    ("bounds", "lb_state"),
    ("bounds", "lb_incremental"),
    ("bounds", "gx_bound"),
    ("astar", "solve_astar"),
    ("exact", "solve_exact"),
    ("exact", "complete_search"),
    ("verify", "replay"),
)

#: Result-derived counts kept next to a span's call count.
COUNTED = {
    "model.legal_moves": len,
    "layout.build_layout": lambda layout: len(layout.access_points),
}


class Span:
    """All calls of one function under one parent span."""

    __slots__ = ("sid", "name", "parent", "instance", "calls", "total", "last",
                 "start", "end", "count", "children")

    def __init__(self, sid, name, parent, instance, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.instance = instance
        self.calls = 0
        self.total = 0.0
        self.last = 0.0
        self.start = start
        self.end = start
        self.count = 0
        self.children = {}

    @property
    def self_time(self) -> float:
        return self.total - sum(child.total for child in self.children.values())

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": None if self.parent is None else self.parent.sid,
            "instance": self.instance,
            "start": self.start,
            "end": self.end,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "count": self.count,
        }


class Tracer:
    """Holds the span tree of one traced pass; ``reset`` starts a new one."""

    def __init__(self):
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans = [Span(0, "bench", None, None, time.perf_counter())]
        self.stack[:] = self.spans

    def _enter(self, name, instance=None) -> Span:
        parent = self.stack[-1]
        key = name if instance is None else (name, instance)
        span = parent.children.get(key)
        if span is None:
            span = Span(len(self.spans), name, parent, instance or parent.instance,
                        time.perf_counter())
            self.spans.append(span)
            parent.children[key] = span
        self.stack.append(span)
        return span

    def _leave(self, span, start, elapsed) -> None:
        span.total += elapsed
        span.last = elapsed
        span.calls += 1
        span.end = start + elapsed
        self.stack.pop()

    @contextmanager
    def span(self, name: str, instance: str | None = None):
        """A span opened by the benchmark itself, around its calls into a layer."""
        span = self._enter(name, instance)
        start = time.perf_counter()
        try:
            yield span
        finally:
            self._leave(span, start, time.perf_counter() - start)

    def _wrap(self, name, fn):
        enter, leave, clock = self._enter, self._leave, time.perf_counter
        count = COUNTED.get(name)

        def traced(*args, **kwargs):
            span = enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(span, start, clock() - start)
            if count is not None:
                span.count += count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED function under each name premarshal binds it to."""
        wrappers = {}
        for module_name, fn_name in TRACED:
            module = sys.modules[f"premarshal.{module_name}"]
            fn = getattr(module, fn_name)
            wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{fn_name}", fn))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "premarshal" or n.startswith("premarshal.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


# -- queries over the spans of one pass ---------------------------------------


def matching(spans, name: str, under: str | None = None):
    """Spans of ``name``, only those below an ``under`` span if given."""
    for span in spans:
        if span.name == name and (
            under is None or any(a.name == under for a in span.ancestors())
        ):
            yield span


def total(spans, name: str, under: str | None = None) -> float:
    """Time in ``name``, not counting calls nested in another ``name`` call."""
    return sum(
        s.total for s in matching(spans, name, under)
        if all(a.name != name for a in s.ancestors())
    )


def calls(spans, name: str, under: str | None = None) -> int:
    return sum(s.calls for s in matching(spans, name, under))


def count(spans, name: str, under: str | None = None) -> int:
    return sum(s.count for s in matching(spans, name, under))


def self_time(spans, prefix: str) -> float:
    """Self time of every span whose name starts with ``prefix``."""
    return sum(s.self_time for s in spans if s.name.startswith(prefix))
