from collections import Counter

import pytest

from jaglab.graph import LabelledGraph
from jaglab.groups import abelian_group, cayley_graph, grid_group
from jaglab.lang import parse_program
from jaglab.machine import (Configuration, Limits, PackedSpace, apply_moves,
                            build_config_graph, partition_of)

GRID_CASES = [(1, 2), (1, 5), (2, 2), (2, 3), (3, 2)]

# presentations: (moduli, generators or None for the standard ones)
ABELIAN_PRESENTATIONS = [
    ((4, 2), None),
    ((4, 2), [(1, 1), (0, 1)]),
    ((4, 2), [(2, 1), (1, 0)]),
    ((8,), None),
    ((8,), [(3,)]),
    ((3, 3), None),
    ((3, 3), [(1, 1), (0, 1), (1, 0)]),
    ((2, 2, 2), None),
    ((6,), [(5,)]),
    ((4, 4), None),
    ((2, 4, 2), None),
    ((64,), None),
    ((8, 8), None),
]


@pytest.fixture(scope="session")
def grid_cayleys():
    out = {}
    for d, l in GRID_CASES:
        group, gens = grid_group(d, l)
        out[(d, l)] = cayley_graph(group, gens)
    return out


@pytest.fixture(scope="session")
def abelian_corpus():
    out = []
    for moduli, gens in ABELIAN_PRESENTATIONS:
        group, gg = abelian_group(moduli, gens)
        out.append((moduli, gens, group, gg, cayley_graph(group, gg)))
    return out


# nine pebbles with s and t: on 300 nodes each takes a field of 9 bits, so
# N = 2**81 and every packed configuration but an accept one exceeds 2**63.
# c jumps to itself, a to b while they share a node, and curr walks the
# cycle from a to the targetnode.
MANY_PEBBLES = """
pebble curr
pebble a
pebble b
pebble c
pebble u
pebble w
pebble z at target
dir x : 1..d
guess x
move a along x
b := a.1
move a along 1
jump c to c
if a == b {
    jump a to b
    jump u to b
}
jump w to z
visit a
while curr != z {
    move curr along 2
}
accept
"""


def cycle(n, target):
    """n nodes in a cycle: label 1 steps back, label 2 forward."""
    rows = tuple(((v - 1) % n, (v + 1) % n) for v in range(n))
    return LabelledGraph(n, 2, rows, 0, target)


def relabelled(g, perm):
    """``g`` with node v renamed ``perm[v]``, the startnode and the
    targetnode included; edge labels stay as they are."""
    rho = [None] * g.num_nodes
    for v, row in enumerate(g.rho):
        rho[perm[v]] = tuple([perm[u] for u in row])
    return LabelledGraph(g.num_nodes, g.degree, tuple(rho),
                         perm[g.startnode], perm[g.targetnode])


def permutation_graph(rng):
    """A graph of 2 to 5 nodes and degree 1 to 3 whose every label column
    is a random permutation of the nodes."""
    n, d = rng.randint(2, 5), rng.randint(1, 3)
    cols = [rng.sample(range(n), n) for _ in range(d)]
    return LabelledGraph(n, d, tuple(tuple(col[v] for col in cols)
                                     for v in range(n)),
                         0, rng.randrange(n))


def plain_bfs(space, limits=Limits()):
    """A breadth-first search of ``space`` over ``space.step`` that stores
    and steps every configuration it discovers, and shares nothing else
    with ``machine.expand``: ``(parent, merges, accepting, limit_hit)``.
    ``parent`` maps each configuration discovered, in order, to the one it
    was first reached from (the initial one to None); ``merges`` lists the
    edges into a configuration already discovered, in the order they were
    followed; ``accepting`` maps each accept configuration (below
    ``space.N``) expanded, in order, to the number of configurations
    discovered before it was expanded.  Before each level the search stops
    with ``"max_configs"`` when more than ``limits.max_configs`` are
    discovered and with ``"max_run_len"`` when the level lies deeper than
    ``limits.max_run_len``, and ``limit_hit`` is None if it runs to the
    end."""
    parent = {space.initial: None}
    merges, accepting = [], {}
    level, depth = [space.initial], 0
    while level:
        if len(parent) > limits.max_configs:
            return parent, merges, accepting, "max_configs"
        if limits.max_run_len is not None and depth > limits.max_run_len:
            return parent, merges, accepting, "max_run_len"
        below = []
        for c in level:
            if c < space.N:
                accepting[c] = len(parent)
            for s in space.step(c):
                if s not in parent:
                    parent[s] = c
                    below.append(s)
                else:
                    merges.append((c, s))
        level, depth = below, depth + 1
    return parent, merges, accepting, None


def search_tree(cg):
    """The search tree of a configuration graph: every configuration
    discovered, in BFS order, mapped to its parent, the one ``cg.parent``
    holds or ``cg.space.back`` of a fresh configuration, which
    ``cg.parent`` leaves out.  Without fresh configurations it is
    ``cg.parent``.  With them the order is ``plain_bfs``'s, cut where the
    build stopped: it must list ``cg.configs_explored`` configurations,
    the ones ``cg.parent`` holds in its order and the others at fresh
    sids."""
    space, parent = cg.space, cg.parent
    if not cg.fresh:
        return parent
    order = plain_bfs(space, Limits(max_configs=cg.configs_explored - 1)
                      if cg.limit_hit else Limits())[0]
    assert len(order) == cg.configs_explored
    assert [c for c in order if c in parent] == list(parent)
    assert all(space.leaps[c >> space.B] is not None
               for c in order if c not in parent)
    return {c: parent[c] if c in parent else space.back(c) for c in order}


def decoded(cg):
    """``(parent, merges, accepting)`` of a configuration graph as
    ``Configuration``s: its ``search_tree`` (the initial configuration
    mapped to None), ``cg.merges`` and ``cg.accepting``, each decoded with
    ``cg.space.decode``."""
    tree = search_tree(cg)
    decode = cg.space.decode
    conf = {c: decode(c) for c in tree}
    conf[None] = None
    return ({conf[c]: conf[above] for c, above in tree.items()},
            [(conf[c], conf[s]) for c, s in cg.merges],
            [conf[c] for c in cg.accepting])


def successors(jag, g):
    """The successor function of one configuration-graph build, on
    ``Configuration``s: a configuration is encoded, stepped by
    ``PackedSpace.step`` and each successor decoded, so the step, its table
    and its move checks are the build's.  It maps a configuration to the
    list of its successors (empty: dead); a successor whose placement did
    not change keeps the placement tuple as it is."""
    space = PackedSpace(jag, g)
    N, states, step, decode = space.N, space.states, space.step, space.decode
    new = tuple.__new__

    def succs(config):
        c = space.encode(config)
        code = c % N
        return [new(Configuration, (states[s // N], config.nodes))
                if s % N == code else decode(s) for s in step(c)]

    return succs


def oracle_successors(jag, g, config):
    """The successors of ``config`` by the oracle's step, ``apply_moves``,
    in ``jag.transitions`` order."""
    return [Configuration(nxt, apply_moves(g, config.nodes, moves))
            for nxt, moves in jag.transitions(config.state,
                                              partition_of(config.nodes))]


def assert_steps_match_oracle(jag, g, cg=None):
    """Every configuration of a complete build ``cg`` (made here if not
    given) steps as the oracle's ``apply_moves`` says, successors in
    ``jag.transitions`` order, and the build's tree and merges hold each of
    those edges once.  Returns the number of configurations checked."""
    if cg is None:
        cg = build_config_graph(jag, g)
    assert cg.limit_hit is None
    succs = successors(jag, g)
    parent, merges, _ = decoded(cg)
    edges = Counter((above, c) for c, above in parent.items()
                    if above is not None) + Counter(merges)
    for c in parent:
        want = oracle_successors(jag, g, c)
        got = succs(c)
        assert got == want
        assert all(type(s) is Configuration for s in got)
        for s in got:
            edges[c, s] -= 1
    assert set(edges.values()) <= {0}
    return len(parent)


def random_program(rng):
    """A random pebble program over pebbles curr, a, s and t, with dir
    variables x and c and a bool b: moves, jumps, guesses, branches, loops
    and fail, some of them reading a variable after a pebble action; four
    in five end with accept."""
    lines = ["pebble curr", "pebble a", "dir x : 1..d", "dir c : 1..d"]

    def stmt(depth, pad):
        kind = rng.choice(
            ["move", "jump", "guessx", "guessb", "iff", "whileb", "fail",
             "assign", "ifb", "for"] if depth < 2
            else ["move", "jump", "guessx", "fail"])
        p = rng.choice(["curr", "a"])
        q = rng.choice(["curr", "a", "s", "t"])
        if kind == "move":
            e = rng.choice(["1", "x", "d"])
            return [f"{pad}move {p} along {e}"]
        if kind in ("ifb", "for"):
            action = rng.choice([f"move {p} along 1", f"jump {p} to {q}"])
            if kind == "ifb":  # a bool read after a pebble action
                return [pad + line for line in (
                    "guess b : bool", action, "if b {", "    accept", "}")]
            # loop bounds and a counter read after a pebble action
            head = ["guess x", action]
            if rng.random() < 0.5:
                head += ["for c = 1 to x {", "    move curr along c"]
                return ([pad + line for line in head]
                        + stmt(depth + 1, pad + "    ") + [pad + "}"])
            # a loop from d runs iff x is d when it starts, and as its body
            # guesses x, only the start reads that x
            head += ["for c = d to x {", "    guess x", "    accept", "}"]
            return [pad + line for line in head]
        if kind == "jump":
            return [f"{pad}jump {p} to {q}"]
        if kind == "assign":
            return [f"{pad}{p} := {q}.1"]
        if kind == "guessx":
            return [f"{pad}guess x"]
        if kind == "guessb":
            return [f"{pad}guess b : bool"]
        if kind == "fail":
            return [f"{pad}fail"]
        if kind == "iff":
            cond = rng.choice([f"{p} == {q}", f"{p} != {q}"])
            out = [f"{pad}if {cond} {{"]
            out += stmt(depth + 1, pad + "    ")
            if rng.random() < 0.5:
                out.append(pad + "} else {")
                out += stmt(depth + 1, pad + "    ")
            out.append(pad + "}")
            return out
        # bounded loop body: guess the guard again inside
        out = [f"{pad}guess b : bool", f"{pad}while b {{"]
        out += stmt(depth + 1, pad + "    ")
        out.append(f"{pad}    guess b : bool")
        out.append(pad + "}")
        return out

    for _ in range(rng.randint(1, 5)):
        lines += stmt(0, "")
    if rng.random() < 0.8:
        lines.append("accept")
    return parse_program("\n".join(lines))
