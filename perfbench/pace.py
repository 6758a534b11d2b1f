"""The machine's current pace, read from a fixed reference task.

The machine this benchmark runs on is shared: other tenants slow whole
stretches of a run, by up to twofold for tens of seconds.  To keep those
stretches out of the figures, the timed loop reads the pace between calls:
it times ``_reference``, a small pure-Python breadth-first search over
tuples that uses no jaglab code, and rescales each measured time by
``NOMINAL_S / reference time``.  Every time the benchmark reports is thus in
seconds at the pace where the reference takes ``NOMINAL_S``, which is about
its time on an idle 2-CPU machine with CPython 3.11.  The reference runs
with the garbage collector off, so the program's heap does not change it.
"""

from __future__ import annotations

import gc
from time import perf_counter

NOMINAL_S = 0.0045
CHUNK_S = 0.25  # read the pace again once this much time has been measured


def _reference() -> int:
    seen = {(0, 0, 0): None}
    frontier = [(0, 0, 0)]
    while frontier:
        nxt = []
        for a, b, c in frontier:
            for s in (((a + 1) % 20, b, c), (a, (b + 3) % 20, c),
                      (a, b, (c + a) % 15)):
                if s not in seen:
                    seen[s] = (a, b, c)
                    nxt.append(s)
        frontier = nxt
    return len(seen)


def sample() -> float:
    """Seconds the reference takes now: the best of three back-to-back runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            _reference()
            best = min(best, perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class Gauge:
    """Reads the pace before a series of timed items, again whenever
    ``CHUNK_S`` has passed, and after the last; each item is rescaled by the
    mean of the two readings around it."""

    def __init__(self):
        self.marks = [(0, sample())]
        self.since = perf_counter()

    def tick(self, done: int) -> None:
        """Call after each item; ``done`` is the number of items so far."""
        if perf_counter() - self.since >= CHUNK_S:
            self.marks.append((done, sample()))
            self.since = perf_counter()

    def scales(self, done: int) -> list:
        """One factor per item, after the last item is done."""
        if self.marks[-1][0] != done:
            self.marks.append((done, sample()))
        out = []
        for (lo, before), (hi, after) in zip(self.marks, self.marks[1:]):
            out += [2 * NOMINAL_S / (before + after)] * (hi - lo)
        return out
