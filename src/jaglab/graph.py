"""Labelled fixed-degree graphs: the universal input of every automaton here.

A graph is given by a total edge function: every node has exactly ``degree``
out-edges, linearly ordered by labels ``1..degree``.  Node ids are dense
0-based integers; edge labels are 1-based.  Graphs are immutable after
construction and safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import GraphFormatError, InputError

NodeId = int
EdgeLabel = int
Path = Sequence[int]


@dataclass(frozen=True)
class LabelledGraph:
    """Directed graph with exactly ``degree`` ordered out-edges per node.

    ``rho[v][i-1]`` is the endpoint of the edge labelled ``i`` leaving ``v``.
    Distinguished ``startnode`` and ``targetnode`` anchor automaton runs.
    """

    num_nodes: int
    degree: int
    rho: tuple[tuple[int, ...], ...]
    startnode: int
    targetnode: int

    def __post_init__(self):
        n, d = self.num_nodes, self.degree
        if n < 1:
            raise InputError("graph needs at least one node")
        if d < 1:
            raise InputError("degree must be at least 1")
        if len(self.rho) != n:
            raise InputError(f"rho has {len(self.rho)} rows, expected {n}")
        for v, row in enumerate(self.rho):
            if len(row) != d:
                raise InputError(f"node {v} has {len(row)} out-edges, expected {d}")
            for u in row:
                if not 0 <= u < n:
                    raise InputError(f"node {v} has edge endpoint {u} out of range")
        for name in ("startnode", "targetnode"):
            v = getattr(self, name)
            if not 0 <= v < n:
                raise InputError(f"{name} {v} out of range")

    def step(self, v: int, label: int) -> int:
        if not 1 <= label <= self.degree:
            raise InputError(f"edge label {label} out of range 1..{self.degree}")
        return self.rho[v][label - 1]


def target(g: LabelledGraph, v: int, w: Path) -> int:
    """Endpoint of the path labelled ``w`` starting at ``v``."""
    for label in w:
        v = g.step(v, label)
    return v


def closure(start, step) -> set:
    """Everything reachable from ``start`` by repeated ``step`` (BFS).

    ``step(x)`` yields the neighbours of ``x``.  Reachable nodes, weak
    components, subgroups, a pebble program's state graph and the run-tree
    oracle's configurations are all this one search; ``FiniteGroup``
    unrolls it to number each product.
    """
    seen = {start}
    queue = [start]
    for x in queue:  # the queue grows while it is read
        for y in step(x):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def reachable_set(g: LabelledGraph, v: int) -> frozenset[int]:
    """All nodes reachable from ``v`` along labelled edges (directed sense)."""
    return frozenset(closure(v, g.rho.__getitem__))


def weak_components(g: LabelledGraph) -> list[frozenset[int]]:
    """Connected components ignoring edge direction, in node-id order."""
    adj: list[set[int]] = [set() for _ in range(g.num_nodes)]
    for v, row in enumerate(g.rho):
        for u in row:
            adj[v].add(u)
            adj[u].add(v)
    comps = []
    seen: set[int] = set()
    for root in range(g.num_nodes):
        if root not in seen:
            comps.append(frozenset(closure(root, adj.__getitem__)))
            seen |= comps[-1]
    return comps


def validate_components(g: LabelledGraph) -> None:
    """Enforce the input convention: at most two components, each pebbled.

    Every component must contain the startnode or the targetnode, so that no
    part of the graph starts out unreachable by any pebble.
    """
    comps = weak_components(g)
    if len(comps) > 2:
        raise InputError(f"graph has {len(comps)} components, at most 2 allowed")
    for comp in comps:
        if g.startnode not in comp and g.targetnode not in comp:
            raise InputError("component contains neither startnode nor targetnode")


def is_undirected(g: LabelledGraph, max_reverse_len: int) -> bool:
    """True iff every edge can be reversed by a path of bounded length.

    This is the relaxed notion: the edge (v, v.i) needs some path of length
    at most ``max_reverse_len`` from v.i back to v, not a single back-edge.
    """
    if max_reverse_len < 1:
        raise InputError("max_reverse_len must be at least 1")
    for v in range(g.num_nodes):
        for u in set(g.rho[v]) - {v}:
            # the nodes at the end of each walk from u of 1, 2, ... steps
            frontier = {u}
            for _ in range(max_reverse_len):
                frontier = {y for x in frontier for y in g.rho[x]}
                if v in frontier:
                    break
            else:
                return False
    return True


def reduce_degree(g: LabelledGraph) -> LabelledGraph:
    """Replace each node by a cycle of size ``degree``; output has degree 3.

    Node (v, j) for j in 1..d becomes id v*d + (j-1).  Label 1 walks the
    cycle forward, label 2 backward, label 3 crosses to (rho(v,j), j).  With
    d = 1 the cycle degenerates to a self-looped single node; with d = 2 the
    forward and backward edges coincide but both labels are kept, so the
    output degree is uniformly 3.  startnode/targetnode map to cycle
    position 1 of their images.
    """
    d = g.degree
    rows = []
    for v in range(g.num_nodes):
        for j in range(1, d + 1):
            fwd = v * d + (j % d)
            back = v * d + ((j - 2) % d)
            cross = g.rho[v][j - 1] * d + (j - 1)
            rows.append((fwd, back, cross))
    return LabelledGraph(g.num_nodes * d, 3, tuple(rows),
                         g.startnode * d, g.targetnode * d)


def disjoint_union(a: LabelledGraph, b: LabelledGraph) -> LabelledGraph:
    """Two-component graph: startnode from ``a``, targetnode from ``b``."""
    if a.degree != b.degree:
        raise InputError("disjoint union needs equal degrees")
    shift = a.num_nodes
    rows = list(a.rho) + [tuple(u + shift for u in row) for row in b.rho]
    return LabelledGraph(a.num_nodes + b.num_nodes, a.degree, tuple(rows),
                         a.startnode, b.targetnode + shift)


def parse_graph(text: str) -> LabelledGraph:
    """Parse the text format; validates all invariants including components.

    Format: header line ``n d s t``, then n lines of d integers where entry
    i of the line for node v is rho(v, i).  Lines starting with ``#`` and
    blank lines are ignored.
    """
    records: list[tuple[int, list[int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            fields = [int(tok) for tok in line.split()]
        except ValueError:
            raise GraphFormatError("non-integer field", line=lineno) from None
        records.append((lineno, fields))
    if not records:
        raise GraphFormatError("empty graph file", line=1)
    lineno, header = records[0]
    if len(header) != 4:
        raise GraphFormatError("header must be 'n d s t'", line=lineno)
    n, d, s, t = header
    if n < 1 or d < 1:
        raise GraphFormatError("node count and degree must be positive", line=lineno)
    if len(records) - 1 != n:
        raise GraphFormatError(f"expected {n} edge rows, found {len(records) - 1}",
                               line=records[-1][0])
    rows = []
    for v, (lineno, fields) in enumerate(records[1:]):
        if len(fields) != d:
            raise GraphFormatError(f"node {v}: expected {d} entries", line=lineno)
        for u in fields:
            if not 0 <= u < n:
                raise GraphFormatError(f"node {v}: endpoint {u} out of range",
                                       line=lineno)
        rows.append(tuple(fields))
    if not (0 <= s < n and 0 <= t < n):
        raise GraphFormatError("startnode/targetnode out of range", line=records[0][0])
    g = LabelledGraph(n, d, tuple(rows), s, t)
    try:
        validate_components(g)
    except InputError as exc:
        raise GraphFormatError(str(exc), line=records[0][0]) from None
    return g


def serialize_graph(g: LabelledGraph) -> str:
    lines = [f"{g.num_nodes} {g.degree} {g.startnode} {g.targetnode}"]
    for row in g.rho:
        lines.append(" ".join(str(u) for u in row))
    return "\n".join(lines) + "\n"
