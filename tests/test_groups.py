import itertools
import random

import pytest

from jaglab.errors import InputError
from jaglab.graph import target
from jaglab.groups import (abelian_group, cayley_graph, direct_product,
                           element_order, gl_group, grid_group, k_cycle,
                           p_k_path, power, primitive_root, subgroup_closure,
                           symmetric_group, wreath_product, wreath_structure)


def _group_corpus():
    out = []
    out.append(grid_group(2, 3))
    out.append(abelian_group((4, 2)))
    out.append(symmetric_group(3))
    out.append(symmetric_group(4))
    out.append(gl_group(2, 2))
    out.append(wreath_product(*grid_group(1, 2), *grid_group(1, 2)))
    out.append(direct_product(*grid_group(1, 2), *grid_group(1, 3)))
    return out


@pytest.mark.parametrize("group,gens", _group_corpus())
def test_group_axioms(group, gens):
    e = group.identity
    rng = random.Random(3)
    elems = group.elements
    for x in elems:
        assert group.multiply(x, e) == x == group.multiply(e, x)
        assert group.multiply(x, group.inverse(x)) == e
        assert group.multiply(group.inverse(x), x) == e
    if group.order <= 12:
        triples = itertools.product(elems, repeat=3)
    else:
        triples = (tuple(rng.choice(elems) for _ in range(3)) for _ in range(300))
    for a, b, c in triples:
        assert group.multiply(group.multiply(a, b), c) == \
            group.multiply(a, group.multiply(b, c))


def test_grid_sizes_and_orders():
    g23, gens = grid_group(2, 3)
    assert g23.order == 9
    assert all(element_order(g23, g) == 3 for g in gens)
    assert grid_group(1, 2)[0].order == 2
    assert grid_group(3, 2)[0].order == 8
    with pytest.raises(InputError):
        grid_group(0, 2)
    with pytest.raises(InputError):
        grid_group(1, 1)


def test_cayley_graph_shapes():
    group, gens = symmetric_group(3)
    cay = cayley_graph(group, gens)
    assert cay.graph.num_nodes == 6 and cay.graph.degree == 2
    group, gens = abelian_group((4, 2))
    cay = cayley_graph(group, gens)
    assert cay.graph.num_nodes == 8 and cay.graph.degree == 2
    assert cay.graph.startnode == cay.node_of[group.identity]
    assert cay.graph.targetnode == cay.graph.startnode  # defaults to identity


def test_cayley_rows_are_left_products():
    # rows recorded by the group's closure (own generators) and rows
    # multiplied out (any other generating set) both map v to gens[i] * v
    for group, gens in _group_corpus():
        for gg in (gens, gens[::-1], gens + gens[:1]):
            cay = cayley_graph(group, gg)
            assert cay.graph.rho == tuple(
                tuple(cay.node_of[group.multiply(g, v)] for g in gg)
                for v in group.elements)


def test_cayley_rejects_non_generating():
    group, _ = abelian_group((4,))
    with pytest.raises(InputError):
        cayley_graph(group, [(2,)])


def test_abelian_redundant_generators_ok():
    group, gens = abelian_group((4, 2), [(1, 1), (0, 1)])
    assert group.order == 8 and len(gens) == 2


def test_abelian_non_generating_rejected():
    with pytest.raises(InputError):
        abelian_group((4, 2), [(2, 0), (0, 1)])


def test_symmetric_generators():
    group, (cy, sw) = symmetric_group(3)
    assert group.order == 6
    assert element_order(group, cy) == 3
    assert element_order(group, sw) == 2
    g2, (cy2, sw2) = symmetric_group(2)
    assert cy2 == sw2 == (2, 1)
    assert symmetric_group(4)[0].order == 24


@pytest.mark.parametrize("n", range(2, 7))
def test_p_k_path_is_k_cycle(n):
    group, gens = symmetric_group(n)
    cay = cayley_graph(group, gens)
    for k in range(2, n + 1):
        word = p_k_path(n, k)
        perm = cay.element_at(target(cay.graph, cay.graph.startnode, word))
        assert perm == k_cycle(n, k), (n, k)


def test_p_k_path_range_errors():
    with pytest.raises(InputError):
        p_k_path(3, 1)
    with pytest.raises(InputError):
        p_k_path(3, 4)


def test_gl_sizes():
    assert gl_group(2, 2)[0].order == 6
    assert gl_group(2, 3)[0].order == 48


def test_gl_identity_is_startnode():
    group, gens = gl_group(2, 3)
    cay = cayley_graph(group, gens)
    assert cay.element_at(cay.graph.startnode) == group.identity


def test_gl_rejects_nonprime():
    with pytest.raises(InputError):
        gl_group(2, 4)


def test_primitive_roots():
    assert primitive_root(2) == 1
    assert primitive_root(3) == 2
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3


def test_direct_product_embeddings():
    group, gens = direct_product(*grid_group(1, 2), *grid_group(1, 3))
    assert group.order == 6
    assert gens[0] == ((1,), (0,))
    assert gens[1] == ((0,), (1,))


def test_direct_with_trivial_factor():
    triv, tgens = abelian_group((1,))
    group, gens = direct_product(*grid_group(2, 2), triv, tgens)
    assert group.order == 4


def test_direct_square_matches_grid():
    # grid(1,2) x grid(1,2) relabels to grid(2,2)
    group, gens = direct_product(*grid_group(1, 2), *grid_group(1, 2))
    cay = cayley_graph(group, gens)
    g22, gens22 = grid_group(2, 2)
    cay22 = cayley_graph(g22, gens22)
    relabel = {cay.node_of[((a,), (b,))]: cay22.node_of[(a, b)]
               for a in range(2) for b in range(2)}
    for v in range(4):
        for i in range(2):
            assert relabel[cay.graph.rho[v][i]] == \
                cay22.graph.rho[relabel[v]][i]


def test_wreath_sizes():
    assert wreath_product(*grid_group(1, 2), *grid_group(1, 2))[0].order == 8
    assert wreath_product(*grid_group(1, 2), *grid_group(1, 3))[0].order == 24


def test_wreath_identity_neutral_and_associative():
    ws = wreath_structure(*grid_group(1, 2), *grid_group(1, 2))
    group = ws.group
    e = group.identity
    for x in group.elements:
        assert group.multiply(x, e) == x == group.multiply(e, x)
    for a, b, c in itertools.product(group.elements, repeat=3):
        assert group.multiply(group.multiply(a, b), c) == \
            group.multiply(a, group.multiply(b, c))


def test_point_support_empty_is_identity():
    ws = wreath_structure(*grid_group(1, 2), *grid_group(1, 2))
    assert ws.point_support([], []) == ws.group.identity


def test_point_support_single_is_delta():
    ws = wreath_structure(*grid_group(1, 2), *grid_group(1, 2))
    g = ws.g_gens[0]
    assert ws.point_support([ws.H.identity], [g]) == ws.delta_left(g)


def test_point_support_validation():
    ws = wreath_structure(*grid_group(1, 2), *grid_group(1, 2))
    g = ws.g_gens[0]
    h = ws.h_gens[0]
    with pytest.raises(InputError):
        ws.point_support([h, h], [g, g])
    with pytest.raises(InputError):
        ws.point_support([h], [ws.G.identity])
    with pytest.raises(InputError):
        ws.point_support([h], [])


def _conjugate_block(ws, h, g):
    emb_h = ws.delta_right(h)
    emb_g = ws.delta_left(g)
    inv_h = ws.delta_right(ws.H.inverse(h))
    return ws.group.multiply(ws.group.multiply(emb_h, emb_g), inv_h)


@pytest.mark.parametrize("hmod", [2, 3])
def test_point_support_equals_conjugate_product(hmod):
    ws = wreath_structure(*grid_group(1, 2), *grid_group(1, hmod))
    nonid = [g for g in ws.G.elements if g != ws.G.identity]
    for r in range(ws.H.order + 1):
        for hs in itertools.permutations(ws.H.elements, r):
            for gs in itertools.product(nonid, repeat=r):
                prod = ws.group.identity
                for h, g in zip(hs, gs):
                    prod = ws.group.multiply(prod, _conjugate_block(ws, h, g))
                assert prod == ws.point_support(hs, gs)


def test_element_order_examples():
    group, (cy, sw) = symmetric_group(3)
    assert element_order(group, cy) == 3
    assert element_order(group, group.identity) == 1


def test_subgroup_closure_example():
    group, _ = abelian_group((4, 2))
    closure = subgroup_closure(group, [(1, 1)])
    assert closure == {(0, 0), (1, 1), (2, 0), (3, 1)}


def test_cayley_uniformity(grid_cayleys):
    # the endpoint offset of a path is position-independent
    rng = random.Random(5)
    for cay in [grid_cayleys[(2, 3)], cayley_graph(*symmetric_group(3))]:
        g = cay.graph
        group = cay.group
        for _ in range(30):
            w = [rng.randint(1, g.degree) for _ in range(rng.randrange(5))]
            ref = None
            for u in range(g.num_nodes):
                elem = group.multiply(cay.element_at(target(g, u, w)),
                                      group.inverse(cay.element_at(u)))
                if ref is None:
                    ref = elem
                assert elem == ref


def test_cayley_left_multiplication_structure(grid_cayleys):
    cay = grid_cayleys[(2, 3)]
    g = cay.graph
    group = cay.group
    rng = random.Random(6)
    for _ in range(30):
        w = [rng.randint(1, g.degree) for _ in range(rng.randrange(5))]
        base = cay.element_at(target(g, g.startnode, w))
        for u in range(g.num_nodes):
            assert cay.element_at(target(g, u, w)) == \
                group.multiply(base, cay.element_at(u))


def test_power_and_inverse_consistency():
    group, gens = symmetric_group(4)
    for g in gens:
        assert power(group, g, element_order(group, g)) == group.identity
