import random

import pytest

from jaglab.errors import GraphFormatError, InputError
from jaglab.families import parse_family
from jaglab.graph import (LabelledGraph, disjoint_union, is_undirected,
                          parse_graph, reachable_set, reduce_degree,
                          serialize_graph, target, validate_components,
                          weak_components)
from jaglab.groups import cayley_graph, symmetric_group

GRID22_TEXT = """\
4 2 0 3
2 1
3 0
0 3
1 2
"""


def test_target_empty_path_is_identity(grid_cayleys):
    cay = grid_cayleys[(2, 3)]
    v = cay.node_of[(0, 0)]
    assert target(cay.graph, v, []) == v


def test_target_grid23_componentwise(grid_cayleys):
    cay = grid_cayleys[(2, 3)]
    v = cay.node_of[(0, 0)]
    assert cay.element_at(target(cay.graph, v, [1, 1, 2])) == (2, 1)


def test_target_s3_cycle_order():
    group, gens = symmetric_group(3)
    cay = cayley_graph(group, gens)
    start = cay.graph.startnode
    assert target(cay.graph, start, [1, 1, 1]) == start  # cy has order 3


def test_target_label_out_of_range(grid_cayleys):
    cay = grid_cayleys[(2, 3)]
    with pytest.raises(InputError):
        target(cay.graph, 0, [3])


def test_target_concatenation(grid_cayleys):
    g = grid_cayleys[(2, 3)].graph
    rng = random.Random(7)
    for _ in range(50):
        v = rng.randrange(g.num_nodes)
        w1 = [rng.randint(1, g.degree) for _ in range(rng.randrange(4))]
        w2 = [rng.randint(1, g.degree) for _ in range(rng.randrange(4))]
        assert target(g, v, w1 + w2) == target(g, target(g, v, w1), w2)


def test_is_undirected_grid23(grid_cayleys):
    g = grid_cayleys[(2, 3)].graph
    assert is_undirected(g, 2)
    assert not is_undirected(g, 1)


def test_is_undirected_involutions():
    # every label an involution: each edge reverses in one step
    g = LabelledGraph(2, 2, ((1, 1), (0, 0)), 0, 0)
    assert is_undirected(g, 1)


def test_reduce_degree_grid22(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph
    r = reduce_degree(g)
    assert r.num_nodes == 8
    assert r.degree == 3
    assert len(reachable_set(r, r.startnode)) == 8


def test_reduce_degree_d1():
    g = LabelledGraph(2, 1, ((1,), (0,)), 0, 1)
    r = reduce_degree(g)
    assert r.degree == 3
    assert r.num_nodes == 2
    # cycle-forward and back degenerate to self-loops
    assert r.rho[0][0] == 0 and r.rho[0][1] == 0
    assert len(reachable_set(r, 0)) == 2


def test_reduce_degree_two_components(grid_cayleys):
    g = disjoint_union(grid_cayleys[(2, 2)].graph, grid_cayleys[(2, 2)].graph)
    r = reduce_degree(g)
    assert len(weak_components(g)) == len(weak_components(r)) == 2


def _mutual_reach_classes(g):
    reach = [reachable_set(g, v) for v in range(g.num_nodes)]
    return [(u, v) for u in range(g.num_nodes) for v in range(g.num_nodes)
            if (v in reach[u]) == (u in reach[v]) and v in reach[u]]


def test_reduce_degree_preserves_partition_randomized():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 7)
        d = rng.randint(1, 3)
        rows = tuple(tuple(rng.randrange(n) for _ in range(d)) for _ in range(n))
        g = LabelledGraph(n, d, rows, 0, rng.randrange(n))
        r = reduce_degree(g)
        reach_g = [reachable_set(g, v) for v in range(n)]
        reach_r = [reachable_set(r, v * d) for v in range(n)]
        for u in range(n):
            for v in range(n):
                mutual_g = v in reach_g[u] and u in reach_g[v]
                mutual_r = v * d in reach_r[u] and u * d in reach_r[v]
                assert mutual_g == mutual_r


def test_reachable_set_cayley_connected(grid_cayleys):
    g = grid_cayleys[(2, 3)].graph
    assert len(reachable_set(g, g.startnode)) == 9


def test_reachable_set_two_components():
    g1 = LabelledGraph(2, 1, ((1,), (0,)), 0, 0)
    g = disjoint_union(g1, g1)
    assert len(reachable_set(g, g.startnode)) == 2


def test_reachable_set_self_loops():
    g = LabelledGraph(1, 3, ((0, 0, 0),), 0, 0)
    assert reachable_set(g, 0) == {0}


def test_parse_frozen_grid22(grid_cayleys):
    g = parse_graph(GRID22_TEXT)
    cay = grid_cayleys[(2, 2)]
    assert g.rho == cay.graph.rho
    assert g.startnode == 0
    assert g.targetnode == cay.node_of[(1, 1)] == 3


def test_serialize_parse_roundtrip(grid_cayleys):
    for cay in grid_cayleys.values():
        g = cay.graph
        assert parse_graph(serialize_graph(g)) == g


def test_parse_ignores_comments_and_blanks():
    text = "# header\n\n4 2 0 3 # inline\n2 1\n3 0\n0 3\n1 2\n"
    assert parse_graph(text) == parse_graph(GRID22_TEXT)


def test_random_graphs_round_trip():
    """A drawn graph round trips when its components are pebbled, and is
    refused by ``parse_graph`` exactly when they are not."""
    from jaglab.spotcheck import random_graph
    rng = random.Random(13)
    kept = two = 0
    for _ in range(400):
        g = random_graph(rng)
        try:
            validate_components(g)
        except InputError:
            with pytest.raises(GraphFormatError):
                parse_graph(serialize_graph(g))
            continue
        assert parse_graph(serialize_graph(g)) == g
        kept += 1
        two += len(weak_components(g)) == 2
    assert kept >= 100 and two >= 10


@pytest.mark.parametrize("spec", [
    "grid:d=2,l=3", "abelian:mod=4,2;gens=(2,1)(1,0)", "sym:n=4",
    "gl:n=2,p=2", "wreath(grid:d=1,l=2, grid:d=1,l=3)",
    "direct(sym:n=3, grid:d=1,l=3)"])
def test_family_graphs_round_trip(spec):
    g = parse_family(spec).graph
    for h in (g, disjoint_union(g, g), reduce_degree(g)):
        assert parse_graph(serialize_graph(h)) == h


def test_serialized_text_is_a_fixed_point():
    text = "# 2x2 grid\n\n4 2 0 3  # n d s t\n2 1\n\n3 0\n# rows\n0 3\n1 2"
    once = serialize_graph(parse_graph(text))
    assert once == GRID22_TEXT
    assert serialize_graph(parse_graph(once)) == once


def test_parse_entry_out_of_range_reports_line():
    bad = "4 2 0 3\n2 1\n3 0\n0 9\n1 2\n"
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(bad)
    assert exc.value.line == 4


def test_parse_malformed_header():
    with pytest.raises(GraphFormatError):
        parse_graph("4 2 0\n")


def test_parse_wrong_row_count():
    with pytest.raises(GraphFormatError):
        parse_graph("2 1 0 1\n1\n")


def test_parse_rejects_three_components():
    text = "3 1 0 1\n0\n1\n2\n"
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_parse_rejects_unpebbled_component():
    # two components but both s and t sit in the first
    text = "3 1 0 1\n1\n0\n2\n"
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_two_pebbled_components_accepted():
    text = "2 1 0 1\n0\n1\n"
    g = parse_graph(text)
    assert len(weak_components(g)) == 2


def test_constructor_validates_shape():
    with pytest.raises(InputError):
        LabelledGraph(2, 1, ((1,),), 0, 0)
    with pytest.raises(InputError):
        LabelledGraph(2, 1, ((1,), (2,)), 0, 0)
    with pytest.raises(InputError):
        LabelledGraph(2, 1, ((1,), (0,)), 0, 5)
