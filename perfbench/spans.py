"""In-memory spans recorded around calls into the jaglab layers.

A span holds a name, its start and end (``time.perf_counter`` seconds), the
id of the span that was open when it began, and the id of the instance it
works on.  Counts measured at a layer boundary go into the span's ``attrs`` dict.
Spans stay in memory until ``write`` dumps them as JSON lines at the end of
a run, so recording costs two clock reads and one list append.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "instance", "attrs",
                 "scale")

    def __init__(self, sid, name, parent, instance):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.instance = instance
        self.start = self.end = 0.0
        self.attrs = None
        self.scale = 1.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def paced(self) -> float:
        """Duration rescaled to the nominal pace (see ``pace``)."""
        return (self.end - self.start) * self.scale


class _Open:
    """Context manager that times one span; the span closes on an exception too."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._stack.append(self.span.sid)
        self.span.start = perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, instance=None) -> _Open:
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, instance)
        self.spans.append(sp)
        return _Open(self, sp)

    def children(self) -> dict:
        kids = defaultdict(list)
        for sp in self.spans:
            if sp.parent is not None:
                kids[sp.parent].append(sp)
        return kids

    def self_times(self, root: Span, kids: dict) -> dict:
        """Self time per (instance, span name) over ``root`` and its descendants.

        A span's self time is its duration minus the time its direct
        children cover; children of one span never overlap here because the
        benchmark runs in one thread.  Times are paced durations; ``kids``
        is ``children()``.
        """
        out: dict = defaultdict(float)
        todo = [root]
        while todo:
            sp = todo.pop()
            below = kids.get(sp.sid, ())
            out[sp.instance, sp.name] += sp.paced - sum(c.paced for c in below)
            todo.extend(below)
        return out

    def attr_sums(self, root: Span, kids: dict) -> dict:
        """Counts from ``attrs`` summed per ``<span name>.<key>`` under ``root``."""
        out: dict = defaultdict(float)
        todo = [root]
        while todo:
            sp = todo.pop()
            for key, val in (sp.attrs or {}).items():
                out[f"{sp.name}.{key}"] += val
            todo.extend(kids.get(sp.sid, ()))
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.sid, "name": sp.name, "start": sp.start,
                    "end": sp.end, "scale": sp.scale, "parent": sp.parent,
                    "instance": sp.instance, "attrs": sp.attrs}) + "\n")
