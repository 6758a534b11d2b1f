"""Traversal and ordering procedures, each in two forms.

Every algorithm exists as (a) a deterministic oracle computed from the group
enumeration -- the ground truth -- and, where the construction is a pebble
program, (b) a nondeterministic guess-and-verify program whose compiled
automaton is model-checked against the oracle.

The ordering algorithms all enumerate canonical generator-exponent words:
a node's canonical form is a digit tuple (t_1..t_m), 0 <= t_i < e_i, whose
word reaches it from the startnode, and the visit order is digit-tuple
successor order (increment the rightmost position whose suffix is maxed,
zeroing the tail -- plain mixed-radix counting).  ``CanonicalTower``
captures such a digit system: per position, a step word over edge labels
and a digit bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, DiagnosticError
from .graph import LabelledGraph, reachable_set, target
from .groups import (CayleyGraph, FiniteGroup, WreathStructure, element_order,
                     p_k_path, power, subgroup_closure)
from .lang import PebbleProgram, parse_program

# ---------------------------------------------------------------------------
# Successor order on digit tuples

def tuple_successor(digits: tuple, bounds: Sequence[int]) -> tuple | None:
    """Mixed-radix successor: bump position k where everything after is
    maxed and digit k still has room; None once all positions are maxed."""
    out = list(digits)
    for k in range(len(digits) - 1, -1, -1):
        if digits[k] < bounds[k] - 1:
            out[k] += 1
            return tuple(out)
        out[k] = 0
    return None


def digit_tuples(bounds: Sequence[int]):
    """All digit tuples in successor order."""
    return itertools.product(*(range(b) for b in bounds))


# ---------------------------------------------------------------------------
# Grid traversal program (degree-generic)

_GRID_SOURCE = """\
# Tour of a grid cayley graph: guess-and-verify one canonical successor step
# per iteration, rebuilding both the next canonical word and (from it) the
# current one from the start pebble; finish by verifying curr sits on the
# all-maxed node.
pebble s
pebble curr
pebble next
pebble curtrace
pebble count

dir k : 1..d
dir dd : 1..d

guess more : bool
while more {
    guess k
    next := s
    for dd = 1 to k {
        count := s
        guess b : bool
        while b {
            guess b : bool
            move next along dd
            move count along dd
            if count == s {
                fail
            }
        }
    }
    # a real increment at position k; without it the step revisits an
    # already-toured node, which is harmless but wasted work
    if count == s {
        fail
    }
    curtrace := next
    for dd = k to d {
        count := s.dd
        while count != s {
            move curtrace along dd
            move count along dd
        }
    }
    if curtrace != curr {
        fail
    }
    curr := next
    guess more : bool
}
curtrace := s
for dd = 1 to d {
    count := s.dd
    while count != s {
        move curtrace along dd
        move count along dd
    }
}
if curtrace != curr {
    fail
}
accept
"""


def grid_traversal_program(d: int = 1) -> PebbleProgram:
    """Nondeterministic tour of CG(grid(d, l)) in canonical successor order.

    One source serves every degree; binding fixes d; the side length l is
    discovered at run time by cycle counting.  Each loop iteration guesses
    the increment position k and the digit word of the successor, walking
    ``next`` along it from s with a count pebble bounding each digit below
    l (the count wraps to s exactly when a digit overflows).  The digit at
    k must be a real increment, and ``curtrace`` re-derives the current
    word by appending l-1 steps for every position k..d: each generator has
    order l, so the appendage undoes one unit at k and re-adds the maxed
    tail.  Only the true successor of curr can pass the comparison, so all
    accepting runs visit nodes in successor order; the run ends by
    verifying curr is the all-maxed node.
    """
    if d < 1:
        raise InputError("need d >= 1")
    return parse_program(_GRID_SOURCE)


# ---------------------------------------------------------------------------
# Group multiplication / inverse programs

def _label_choice(moves_per_label: Sequence[Sequence[str]], indent: str,
                  prefix: str) -> list[str]:
    """Unrolled nondeterministic choice of an edge label: nested bool guesses
    select one branch of per-label statements."""
    d = len(moves_per_label)
    lines: list[str] = []

    def branch(i, depth):
        pad = indent + "    " * depth
        if i == d - 1:
            lines.extend(pad + stmt for stmt in moves_per_label[i])
            return
        lines.append(pad + f"guess {prefix}{i + 1} : bool")
        lines.append(pad + f"if {prefix}{i + 1} {{")
        lines.extend(pad + "    " + stmt for stmt in moves_per_label[i])
        lines.append(pad + "} else {")
        branch(i + 1, depth + 1)
        lines.append(pad + "}")

    branch(0, 0)
    return lines


def mult_program(degree: int) -> PebbleProgram:
    """On acceptance, pebble r sits on node(p).node(q).

    Traces a path from s to p with a helper pebble while moving r in tandem
    from q; path uniformity of Cayley graphs makes the endpoint the product.
    """
    lines = ["pebble p", "pebble q", "pebble helper", "pebble r",
             "jump helper to s", "jump r to q",
             "while helper != p {"]
    lines += _label_choice(
        [[f"move helper along {i}", f"move r along {i}"]
         for i in range(1, degree + 1)], "    ", "c")
    lines += ["}", "accept"]
    return parse_program("\n".join(lines))


def inverse_program(degree: int) -> PebbleProgram:
    """On acceptance, pebble q sits on the x with x.node(p) = startnode.

    q walks a guessed word from s while a checker walks the same word from
    p; the guess verifies when the checker lands on s.
    """
    lines = ["pebble p", "pebble q", "pebble chk",
             "jump q to s", "jump chk to p",
             "guess go : bool",
             "while go {"]
    lines += _label_choice(
        [[f"move q along {i}", f"move chk along {i}"]
         for i in range(1, degree + 1)], "    ", "c")
    lines += ["    guess go : bool", "}",
              "if chk == s {", "    accept", "}", "fail"]
    return parse_program("\n".join(lines))


# ---------------------------------------------------------------------------
# Counting via a maximum-order generator

def max_order_generator(group: FiniteGroup, gens: Sequence) -> tuple[int, int]:
    """(1-based index, order) of the maximum-order generator; ties break to
    the lowest index."""
    best_i, best_e = 1, element_order(group, gens[0])
    for i, g in enumerate(gens[1:], start=2):
        e = element_order(group, g)
        if e > best_e:
            best_i, best_e = i, e
    return best_i, best_e


# the most decimal digits a capacity may have: CPython's default limit on
# converting an int to a string
_CAPACITY_DIGITS = 4300


def counting_capacity(e: int, pebbles: int) -> int:
    """Counter range demonstrated by ``pebbles`` digit pebbles of span e.

    ``e ** pebbles`` has ``floor(pebbles * log10(e)) + 1`` digits; past
    ``_CAPACITY_DIGITS`` it is an ``InputError``, raised before the power
    is computed, so that a huge count allocates nothing.
    """
    if e > 1 and pebbles >= _CAPACITY_DIGITS / math.log10(e):
        raise InputError(f"capacity {e}**{pebbles} has more than "
                         f"{_CAPACITY_DIGITS} digits")
    return e ** pebbles


def counter_values(cay: CayleyGraph, gen_index: int) -> list[int]:
    """The counter positions 0..e-1 as nodes along the chosen generator."""
    e = element_order(cay.group, cay.gens[gen_index - 1])
    return tower_order(cay.graph,
                       CanonicalTower((TowerPosition((gen_index,), e),)))


def count_to_max_order_program(degree: int) -> PebbleProgram:
    """Guess a generator, verify it has maximum order by tandem walks, then
    demonstrate the counter by walking its full cycle.

    The order comparison steps pebbles a (along the guessed m) and b (along
    each candidate) together from s; if a returns to s strictly before b,
    the guessed generator is outranked and the run dies.
    """
    lines = ["pebble a", "pebble b", "pebble count",
             "dir m : 1..d", "dir i : 1..d",
             "guess m",
             "for i = 1 to d {",
             "    a := s",
             "    b := s",
             "    move a along m",
             "    move b along i",
             "    while b != s {",
             "        if a == s {",
             "            fail",
             "        }",
             "        move a along m",
             "        move b along i",
             "    }",
             "}",
             # the counter: distances 0..e-1 from s along m
             "count := s.m",
             "while count != s {",
             "    move count along m",
             "}",
             "accept"]
    return parse_program("\n".join(lines))


# ---------------------------------------------------------------------------
# Abelian canonical paths

def abelian_e_values(group: FiniteGroup, gens: Sequence) -> tuple[int, ...]:
    """e_i = least t >= 1 with gens[i]^t in the subgroup of earlier
    generators; the product of the e_i is the group order."""
    es = []
    for i, g in enumerate(gens):
        sub = subgroup_closure(group, gens[:i]) if i else {group.identity}
        t = 1
        x = g
        while x not in sub:
            x = group.multiply(g, x)
            t += 1
        es.append(t)
    return tuple(es)


def abelian_canonical_exponents(group: FiniteGroup, gens: Sequence, x) -> tuple:
    """The unique digit tuple (t_i < e_i) whose generator word reaches x."""
    for digits in digit_tuples(abelian_e_values(group, gens)):
        y = group.identity
        for g, t in zip(gens, digits):
            y = group.multiply(power(group, g, t), y)
        if y == x:
            return digits
    raise InputError(f"{x!r} unreachable by canonical words")


def abelian_canonical_path(group: FiniteGroup, gens: Sequence, x) -> tuple[int, ...]:
    """Label word of the canonical path to x: t_1 ones, then t_2 twos, ..."""
    tower = _generator_tower(abelian_e_values(group, gens))
    return tower.word(abelian_canonical_exponents(group, gens, x))


@dataclass(frozen=True)
class AbelianOrderingState:
    """Induction state over generator prefixes: gmax is the node reached by
    the maximal canonical word over the first i generators, nmax its length."""
    index: int
    gmax: int
    nmax: int


def abelian_ordering_run(cay: CayleyGraph) -> tuple[list[int], list[AbelianOrderingState]]:
    """Deterministic form of the inductive ordering procedure.

    Works on the graph alone: maintains (gmax_i, nmax_i), derives each
    e_{i+1} by walking x_t = gmax_i . g_{i+1}^t until x_t re-enters the
    subgroup enumerated so far, and finally emits every canonical digit
    tuple in successor order.  Returns (visit order, induction trail).
    """
    g = cay.graph
    start = g.startnode
    states = [AbelianOrderingState(0, start, 0)]
    enumerated = {start}
    es: list[int] = []
    gmax, nmax = start, 0
    for i in range(1, g.degree + 1):
        # advance: walk gmax . g_i^t until membership in the enumerated subgroup
        node = g.step(gmax, i)
        t = 1
        while node not in enumerated:
            node = g.step(node, i)
            t += 1
            if t > g.num_nodes:
                raise InputError("generator walk failed to close")
        es.append(t)
        gmax = target(g, gmax, [i] * (t - 1))
        nmax += t - 1
        states.append(AbelianOrderingState(i, gmax, nmax))
        order = tower_order(g, _generator_tower(es))
        enumerated = set(order)
    return order, states


# ---------------------------------------------------------------------------
# Canonical digit towers and their generated programs

@dataclass(frozen=True)
class TowerPosition:
    word: tuple[int, ...]   # edge-label word stepping this digit by one
    size: int               # digit bound e: digits range over 0..e-1


@dataclass(frozen=True)
class CanonicalTower:
    positions: tuple[TowerPosition, ...]

    @property
    def bounds(self) -> tuple[int, ...]:
        return tuple(p.size for p in self.positions)

    def word(self, digits: Sequence[int]) -> tuple[int, ...]:
        """Label word of a digit tuple: each position's word, digit times."""
        word: tuple[int, ...] = ()
        for pos, t in zip(self.positions, digits):
            word += pos.word * t
        return word


def _generator_tower(es: Sequence[int]) -> CanonicalTower:
    """One position per generator: position i steps along label i, bound e_i."""
    return CanonicalTower(tuple(
        TowerPosition((i,), e) for i, e in enumerate(es, start=1)))


def tower_order(g: LabelledGraph, tower: CanonicalTower) -> list[int]:
    """Visit order: every digit tuple in successor order, mapped to nodes by
    walking the concatenated position words from the startnode."""
    return [target(g, g.startnode, tower.word(digits))
            for digits in digit_tuples(tower.bounds)]


def check_tower(g: LabelledGraph, tower: CanonicalTower) -> list[int]:
    """Validate bijectivity: the digit tuples must reach every node reachable
    from the startnode exactly once.  Returns the visit order."""
    order = tower_order(g, tower)
    if len(set(order)) != len(order):
        raise InputError("tower digit tuples are not injective")
    if set(order) != set(reachable_set(g, g.startnode)):
        raise InputError("tower digit tuples do not cover the component")
    return order


def abelian_tower(cay: CayleyGraph) -> CanonicalTower:
    return _generator_tower(abelian_e_values(cay.group, cay.gens))


def symmetric_tower(n: int) -> CanonicalTower:
    """Positions k = n..2 stepping by the k-cycle words; digit bound k."""
    return CanonicalTower(tuple(
        TowerPosition(p_k_path(n, k), k) for k in range(n, 1, -1)))


def symmetric_ordering_run(cay: CayleyGraph) -> list[int]:
    """Enumerate S(n) by exponent tuples (i_n..i_2), 0 <= i_j < j, in
    successor order; bijectivity is validated on the graph."""
    n = len(cay.group.identity)
    return check_tower(cay.graph, symmetric_tower(n))


def direct_tower(a: CanonicalTower, b: CanonicalTower,
                 a_degree: int) -> CanonicalTower:
    """Tower of a direct product graph: left factor digits are most
    significant, so the order nests the right factor inside the left."""
    positions = list(a.positions)
    positions += [TowerPosition(tuple(l + a_degree for l in p.word), p.size)
                  for p in b.positions]
    return CanonicalTower(tuple(positions))


def wreath_tower(ws: WreathStructure, g_tower: CanonicalTower,
                 h_tower: CanonicalTower) -> CanonicalTower:
    """Tower of CG(G wr H): one conjugated copy of G's tower per H-element,
    then H's tower.  Conjugation routes a G-step through an H-word so the
    function part is set point by point."""
    dg = len(ws.g_gens)
    h_graph_labels = lambda word: tuple(l + dg for l in word)
    # label word reaching each H element inside the embedded H-subgraph
    h_words = _bfs_words(ws.H, ws.h_gens)
    positions: list[TowerPosition] = []
    for h in ws.H.elements:
        w = h_words[h]
        w_inv = h_words[ws.H.inverse(h)]
        for pos in g_tower.positions:
            word = h_graph_labels(w) + pos.word + h_graph_labels(w_inv)
            positions.append(TowerPosition(word, pos.size))
    positions += [TowerPosition(h_graph_labels(p.word), p.size)
                  for p in h_tower.positions]
    return CanonicalTower(tuple(positions))


def _bfs_words(group: FiniteGroup, gens: Sequence) -> dict:
    """Shortest generator word (as 1-based label list) reaching each element
    by left multiplication."""
    words = {group.identity: ()}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for i, g in enumerate(gens, start=1):
                y = group.multiply(g, x)
                if y not in words:
                    words[y] = words[x] + (i,)
                    nxt.append(y)
        frontier = nxt
    if len(words) != group.order:
        raise InputError("generators do not generate the group")
    return words


def tower_program(tower: CanonicalTower) -> PebbleProgram:
    """Generate the guess-and-verify ordering program for a digit tower.

    Each loop iteration advances curr to its canonical successor: guess the
    increment position k and the digit prefix, rebuild both the current and
    the successor word from s (next takes one extra unit at k, curtrace
    walks the maxed tail), and fail unless the rebuilt word lands on curr.
    Digit-tuple uniqueness makes the verifying guess unique, so all
    accepting runs visit nodes in the same successor order.  The run ends by
    verifying curr sits on the all-maxed node and accepting.
    """
    m = len(tower.positions)
    if m == 0:
        return parse_program("pebble curr\naccept")
    maxe = max(max(p.size for p in tower.positions), 2)
    lines = ["pebble s", "pebble curr", "pebble next", "pebble curtrace"]
    for i, pos in enumerate(tower.positions, start=1):
        lines.append(f"dir t{i} : {{1..{pos.size}}}")
    lines.append(f"dir c : {{1..{maxe}}}")

    def walk(peb: str, word, start_bound, end_bound, pad: str) -> list[str]:
        # walks the word (end - start + 1) times; bounds are literals or a
        # digit variable name
        if isinstance(end_bound, int) and isinstance(start_bound, int) \
                and end_bound < start_bound:
            return []
        out = [pad + f"for c = {start_bound} to {end_bound} {{"]
        for label in word:
            out.append(pad + f"    move {peb} along {label}")
        out.append(pad + "}")
        return out

    def advance_branch(k: int, pad: str) -> list[str]:
        out = [pad + "next := s", pad + "curtrace := s"]
        for i in range(1, k):
            pos = tower.positions[i - 1]
            out.append(pad + f"guess t{i}")
            # digit is t_i - 1: walk it on both tracer pebbles
            out += walk("next", pos.word, 2, f"t{i}", pad)
            out += walk("curtrace", pos.word, 2, f"t{i}", pad)
        pos = tower.positions[k - 1]
        out.append(pad + f"guess t{k}")
        out += walk("next", pos.word, 2, f"t{k}", pad)      # new digit units
        out += walk("curtrace", pos.word, 3, f"t{k}", pad)  # one unit fewer
        # a zero increment leaves next == curtrace: not a successor step
        out.append(pad + "if next == curtrace {")
        out.append(pad + "    fail")
        out.append(pad + "}")
        for i in range(k + 1, m + 1):
            pos = tower.positions[i - 1]
            out += walk("curtrace", pos.word, 1, pos.size - 1, pad)
        out.append(pad + "if curtrace != curr {")
        out.append(pad + "    fail")
        out.append(pad + "}")
        out.append(pad + "jump curr to next")
        return out

    def branches(k: int, pad: str) -> list[str]:
        if k == m:
            return advance_branch(k, pad)
        out = [pad + f"guess k{k} : bool", pad + f"if k{k} {{"]
        out += advance_branch(k, pad + "    ")
        out.append(pad + "} else {")
        out += branches(k + 1, pad + "    ")
        out.append(pad + "}")
        return out

    lines.append("guess more : bool")
    lines.append("while more {")
    lines += branches(1, "    ")
    lines.append("    guess more : bool")
    lines.append("}")
    # finish: verify curr is the all-maxed node
    lines.append("curtrace := s")
    for pos in tower.positions:
        lines += walk("curtrace", pos.word, 1, pos.size - 1, "")
    lines.append("if curtrace != curr {")
    lines.append("    fail")
    lines.append("}")
    lines.append("accept")
    return parse_program("\n".join(lines))


# ---------------------------------------------------------------------------
# Wreath arithmetic

def wreath_is_number(ws: WreathStructure, x) -> bool:
    """True iff x = (f, 1_H): the shape that represents a number."""
    return x[1] == ws.H.identity


def wreath_value(ws: WreathStructure, x) -> int:
    """The number represented: the size of f's support."""
    if not wreath_is_number(ws, x):
        raise InputError("not a number representation")
    return ws.support_size(x)


def is_number_program(ws: WreathStructure) -> PebbleProgram:
    """Pebble form of the number-shape test, applied to the targetnode.

    Guess a path from s to t while mirroring its H-embedded labels on a
    separate pebble u; accept iff u returns to s, i.e. the H-generators on
    the path multiply to the identity.  The H-part of a product is the
    product of H-parts, so the verdict is path-independent.
    """
    dg = len(ws.g_gens)
    d = dg + len(ws.h_gens)
    per_label = []
    for i in range(1, d + 1):
        stmts = [f"move tracker along {i}"]
        if i > dg:
            stmts.append(f"move u along {i}")
        per_label.append(stmts)
    lines = ["pebble tracker", "pebble u", "while tracker != t {"]
    lines += _label_choice(per_label, "    ", "c")
    lines += ["}", "if u == s {", "    accept", "}", "fail"]
    return parse_program("\n".join(lines))


def wreath_testf(ws: WreathStructure, x, h) -> bool:
    """True iff f(h) = 1_G for the number representation x = (f, 1_H)."""
    if not wreath_is_number(ws, x):
        raise InputError("not a number representation")
    return ws.f_value(x, h) == ws.G.identity


def wreath_testf_by_walk(ws: WreathStructure, cay: CayleyGraph, x, h) -> bool:
    """Path-walk realization of the f(h) test.

    Walk any path from s to x's node, carrying the running H-value in u and
    accumulating in v exactly the G-generators seen at the right H-offset.
    Since edges multiply on the left, a G-step taken at prefix value u ends
    up (after the later H-steps shift it) at support point u^-1, so the
    generators that build f(h) are those seen while u = h^-1.  On arrival v
    equals f(h), tested against the identity here.
    """
    if not wreath_is_number(ws, x):
        raise InputError("not a number representation")
    words = _bfs_words(cay.group, cay.gens)
    path = words[x]
    dg = len(ws.g_gens)
    h_inv = ws.H.inverse(h)
    u = ws.H.identity
    v = ws.G.identity
    for label in path:
        if label <= dg:
            if u == h_inv:
                v = ws.G.multiply(ws.g_gens[label - 1], v)
        else:
            u = ws.H.multiply(ws.h_gens[label - dg - 1], u)
    return v == ws.G.identity


def wreath_canonical_path(ws: WreathStructure, cay: CayleyGraph, x) -> tuple[int, ...]:
    """A conjugate-block path reaching the number representation x.

    Shape: per support point, an H-word, a G-word, and the inverse H-word;
    each block contributes one support point, and the blocks' points are
    pairwise distinct.  The identity gets the empty path.
    """
    if not wreath_is_number(ws, x):
        raise InputError("not a number representation")
    dg = len(ws.g_gens)
    h_words = _bfs_words(ws.H, ws.h_gens)
    g_words = _bfs_words(ws.G, ws.g_gens)
    word: list[int] = []
    for i, h in enumerate(ws.H.elements):
        gamma = x[0][i]
        if gamma == ws.G.identity:
            continue
        # the block h-word : gamma-word : h^{-1}-word lands support on h
        w_h = [l + dg for l in h_words[ws.H.inverse(h)]]
        w_h_inv = [l + dg for l in h_words[h]]
        word += w_h + list(g_words[gamma]) + w_h_inv
    path = tuple(word)
    if target(cay.graph, cay.graph.startnode, path) != cay.node_of[x]:
        raise DiagnosticError("canonical wreath path missed its endpoint")
    return path


def wreath_block_count(ws: WreathStructure, cay: CayleyGraph,
                       path: Sequence[int]) -> int:
    """Number of conjugate blocks in a canonical path, verified block by
    block: accumulated support points must be fresh (the f-test rejects
    repeats) and the walk must stay in number shape between blocks."""
    dg = len(ws.g_gens)
    group = cay.group
    x = group.identity
    used = set()
    blocks = 0
    i = 0
    path = list(path)
    while i < len(path):
        # H-block, one G-word, inverse H-block
        j = i
        h = ws.H.identity
        while j < len(path) and path[j] > dg:
            h = ws.H.multiply(ws.h_gens[path[j] - dg - 1], h)
            j += 1
        if j == len(path):
            break
        while j < len(path) and path[j] <= dg:
            j += 1
        # close the block with the inverse H-word
        hi = ws.H.inverse(h)
        # walk the whole block on the group
        block = path[i:j]
        for label in block:
            gen = ws.gens[label - 1]
            x = group.multiply(gen, x)
        k = j
        acc = ws.H.identity
        while k < len(path) and path[k] > dg and acc != hi:
            acc = ws.H.multiply(ws.h_gens[path[k] - dg - 1], acc)
            x = group.multiply(ws.gens[path[k] - 1], x)
            k += 1
        if acc != hi:
            raise InputError("path does not close its conjugate block")
        point = hi
        if not wreath_is_number(ws, x):
            raise InputError("path leaves number shape between blocks")
        if point in used or ws.f_value(x, point) == ws.G.identity:
            raise InputError("conjugate block repeats a support point")
        used.add(point)
        blocks += 1
        i = k
    return blocks


def wreath_same(ws: WreathStructure, x, y) -> bool:
    """Equal represented numbers."""
    return wreath_value(ws, x) == wreath_value(ws, y)


def wreath_successor(ws: WreathStructure, x, y) -> bool:
    """True iff y represents the successor of x."""
    return wreath_value(ws, y) == wreath_value(ws, x) + 1


def wreath_zero(ws: WreathStructure):
    return ws.group.identity


def wreath_increment(ws: WreathStructure, x):
    """Add one support point at the first fresh H-element; full support
    means the counter would overflow its |H| range."""
    if not wreath_is_number(ws, x):
        raise InputError("not a number representation")
    gamma = ws.g_gens[0]
    if gamma == ws.G.identity:
        gamma = next(g for g in ws.G.elements if g != ws.G.identity)
    for i, h in enumerate(ws.H.elements):
        if x[0][i] == ws.G.identity:
            bump = ws.point_support([h], [gamma])
            return ws.group.multiply(bump, x)
    raise OverflowError(f"counter exceeds |H| = {ws.H.order}")


def wreath_decrement(ws: WreathStructure, x):
    if not wreath_is_number(ws, x):
        raise InputError("not a number representation")
    for i, h in enumerate(ws.H.elements):
        gamma = x[0][i]
        if gamma != ws.G.identity:
            drop = ws.point_support([h], [ws.G.inverse(gamma)])
            return ws.group.multiply(drop, x)
    raise InputError("decrement of zero")


# ---------------------------------------------------------------------------
# Register machines over wreath counters

@dataclass(frozen=True)
class RegisterMachine:
    """inc/dec/jz/halt machine whose registers are wreath counters.

    Instructions: ("inc", r), ("dec", r), ("jz", r, addr), ("halt",).
    The machine must never store a value above its final output; with
    counters capped at |H| that premise keeps every register in range.
    """
    num_registers: int
    program: tuple
    output: int = 0

    def __post_init__(self):
        for instr in self.program:
            if instr[0] not in ("inc", "dec", "jz", "halt"):
                raise InputError(f"unknown instruction {instr!r}")
            if instr[0] in ("inc", "dec", "jz") and not \
                    0 <= instr[1] < self.num_registers:
                raise InputError(f"register out of range in {instr!r}")
            if instr[0] == "jz" and not 0 <= instr[2] <= len(self.program):
                raise InputError(f"jump target out of range in {instr!r}")


def run_register_machine(rm: RegisterMachine, ws: WreathStructure,
                         inputs: Sequence[int] = (), max_steps: int = 100_000) -> int:
    """Execute with wreath-counter registers; returns the output value.

    Register arithmetic goes through the wreath operations only: increment
    adds a fresh support point (overflow above |H| raises), decrement
    removes one, and the zero test compares against the zero representation
    via the same-number check.
    """
    regs = [wreath_zero(ws) for _ in range(rm.num_registers)]
    for r, val in enumerate(inputs):
        for _ in range(val):
            regs[r] = wreath_increment(ws, regs[r])
    zero = wreath_zero(ws)
    pc = 0
    for _ in range(max_steps):
        if pc >= len(rm.program):
            break
        instr = rm.program[pc]
        if instr[0] == "halt":
            break
        if instr[0] == "inc":
            regs[instr[1]] = wreath_increment(ws, regs[instr[1]])
            pc += 1
        elif instr[0] == "dec":
            regs[instr[1]] = wreath_decrement(ws, regs[instr[1]])
            pc += 1
        else:  # jz
            if wreath_same(ws, regs[instr[1]], zero):
                pc = instr[2]
            else:
                pc += 1
    else:
        raise InputError("register machine exceeded its step budget")
    return wreath_value(ws, regs[rm.output])


def doubling_machine() -> RegisterMachine:
    """Computes 2k from k (input register 0, output register 1)."""
    prog = (
        ("jz", 0, 5),
        ("dec", 0),
        ("inc", 1),
        ("inc", 1),
        ("jz", 2, 0),   # register 2 stays zero: unconditional loop
        ("halt",),
    )
    return RegisterMachine(3, prog, output=1)


# ---------------------------------------------------------------------------
# Product orderings

def product_ordering(g_order: Sequence, h_order: Sequence) -> list[tuple]:
    """Order of a direct product: for each g in G's order, the coset gH in
    H's order."""
    return [(a, b) for a in g_order for b in h_order]


def replacement_product_ordering(g_order: Sequence[int], degree: int,
                                 h_order: Sequence[int]) -> list[int]:
    """Order of the degree-reduced graph: visit all cycle positions of each
    node, following the outer order.  ``h_order`` lists cycle positions
    1..degree; its length must match the degree."""
    if sorted(h_order) != list(range(1, degree + 1)):
        raise InputError("cycle order must list positions 1..degree")
    return [v * degree + (pos - 1) for v in g_order for pos in h_order]


# ---------------------------------------------------------------------------
# Negative controls

def jump_to_target_program() -> PebbleProgram:
    """Accepts after parking curr on the target: never traversable when the
    start component has interior nodes."""
    return parse_program("pebble curr\njump curr to t\naccept")


def two_tour_guesser_program() -> PebbleProgram:
    """Guesses between two visit sequences, so it cannot be orderable on a
    two-component input."""
    return parse_program(
        "pebble curr\n"
        "guess b : bool\n"
        "if b {\n"
        "    jump curr to t\n"
        "}\n"
        "accept")
