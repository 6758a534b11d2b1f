from collections import Counter

import pytest

from jaglab.groups import abelian_group, cayley_graph, grid_group
from jaglab.lang import parse_program
from jaglab.machine import (Configuration, PackedSpace, apply_moves,
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


def decoded(cg):
    """``(parent, merges, accepting)`` of a configuration graph as
    ``Configuration``s: ``cg.packed_parent`` (in its order, the initial
    configuration mapped to None), ``cg.packed_merges`` and
    ``cg.packed_accepting``, each decoded with ``cg.space.decode``."""
    decode = cg.space.decode
    conf = {c: decode(c) for c in cg.packed_parent}
    conf[None] = None
    return ({conf[c]: conf[above] for c, above in cg.packed_parent.items()},
            [(conf[c], conf[s]) for c, s in cg.packed_merges],
            [conf[c] for c in cg.packed_accepting])


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
