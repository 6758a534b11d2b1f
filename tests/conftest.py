from collections import Counter

import pytest

from jaglab.groups import abelian_group, cayley_graph, grid_group
from jaglab.machine import (Configuration, apply_moves, build_config_graph,
                            partition_of, successors)

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
    edges = Counter((above, c) for c, above in cg.parent.items()
                    if above is not None) + Counter(cg.merges)
    for c in cg.parent:
        want = oracle_successors(jag, g, c)
        got = succs(c)
        assert got == want
        assert all(type(s) is Configuration for s in got)
        for s in got:
            edges[c, s] -= 1
    assert set(edges.values()) <= {0}
    return len(cg.parent)
