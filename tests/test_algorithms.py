import itertools

import pytest

from jaglab.errors import InputError
from jaglab.graph import LabelledGraph, target
from jaglab.groups import (abelian_group, cayley_graph, element_order,
                           grid_group, power, symmetric_group,
                           wreath_structure)
from jaglab.lang import compile_program, interpret
from jaglab.machine import (Limits, Verdict, build_config_graph,
                            check_orderable, check_traversable, expand,
                            initial_config)
from jaglab.algorithms import (CanonicalTower, TowerPosition,
                               abelian_canonical_exponents,
                               abelian_canonical_path, abelian_e_values,
                               abelian_ordering_run, abelian_tower,
                               check_tower, count_to_max_order_program,
                               counter_values, counting_capacity,
                               digit_tuples, doubling_machine,
                               grid_traversal_program, inverse_program,
                               is_number_program, jump_to_target_program,
                               max_order_generator, mult_program,
                               product_ordering, replacement_product_ordering,
                               run_register_machine, symmetric_ordering_run,
                               symmetric_tower, tower_order, tower_program,
                               tuple_successor, two_tour_guesser_program,
                               wreath_block_count, wreath_canonical_path,
                               wreath_increment,
                               wreath_is_number, wreath_same, wreath_successor,
                               wreath_testf, wreath_testf_by_walk,
                               wreath_tower, wreath_value, wreath_zero,
                               RegisterMachine)
from jaglab.graph import reduce_degree



# -- successor rule ---------------------------------------------------------

@pytest.mark.parametrize("bounds", [(2,), (3, 2), (2, 3, 2), (4, 1, 2)])
def test_tuple_successor_matches_lexicographic(bounds):
    tuples = list(digit_tuples(bounds))
    assert tuples == sorted(tuples)
    for cur, nxt in zip(tuples, tuples[1:]):
        assert tuple_successor(cur, bounds) == nxt
    assert tuple_successor(tuples[-1], bounds) is None


# -- multiplication / inverse ------------------------------------------------

def _pebble_index(prog, degree):
    bp = prog.bind(degree)
    return {name: i + 1 for i, name in enumerate(bp.pebble_names)}


def _accepting_from(jag, g, placements):
    """The accepting configurations reachable when the pebbles of
    ``placements`` (pebble index -> node) start on the given nodes, and
    the budget that stopped the search, or None."""
    init = initial_config(jag, g)
    nodes = list(init.nodes)
    for peb, node in placements.items():
        nodes[peb - 1] = node
    space = jag.space(g)
    space.initial = space.encode(init._replace(nodes=tuple(nodes)))
    _, _, accepting, limit_hit, _ = expand(space, Limits())
    return [space.decode(c) for c in accepting], limit_hit


def _z4():
    group, gens = abelian_group((4,))
    return group, gens, cayley_graph(group, gens)


def test_mult_program_z4_examples():
    group, gens, cay = _z4()
    prog = mult_program(1)
    jag = compile_program(prog, 1)
    idx = _pebble_index(prog, 1)
    for p, q in [((3,), (2,)), ((0,), (2,)), ((1,), (3,))]:
        accepting, limit_hit = _accepting_from(
            jag, cay.graph,
            {idx["p"]: cay.node_of[p], idx["q"]: cay.node_of[q]})
        assert not limit_hit
        want = cay.node_of[group.multiply(p, q)]
        assert accepting
        assert {c.nodes[idx["r"] - 1] for c in accepting} == {want}


def test_mult_program_symmetric():
    group, gens = symmetric_group(3)
    cay = cayley_graph(group, gens)
    prog = mult_program(2)
    jag = compile_program(prog, 2)
    idx = _pebble_index(prog, 2)
    for p in group.elements[:3]:
        for q in group.elements[:3]:
            accepting, limit_hit = _accepting_from(
                jag, cay.graph,
                {idx["p"]: cay.node_of[p], idx["q"]: cay.node_of[q]})
            assert not limit_hit
            want = cay.node_of[group.multiply(p, q)]
            assert {c.nodes[idx["r"] - 1] for c in accepting} == {want}


def test_inverse_program_z4():
    group, gens, cay = _z4()
    prog = inverse_program(1)
    jag = compile_program(prog, 1)
    idx = _pebble_index(prog, 1)
    for p in group.elements:
        accepting, limit_hit = _accepting_from(
            jag, cay.graph, {idx["p"]: cay.node_of[p]})
        assert not limit_hit
        want = cay.node_of[group.inverse(p)]
        assert {c.nodes[idx["q"] - 1] for c in accepting} == {want}


# -- grid ordering ------------------------------------------------------------

def test_grid_program_orders(grid_cayleys):
    prog = grid_traversal_program()
    for (d, l) in [(1, 2), (2, 2)]:
        cay = grid_cayleys[(d, l)]
        res = interpret(prog, cay.graph)
        expected = tuple(cay.node_of[t] for t in digit_tuples((l,) * d))
        assert res.verdict is Verdict.ACCEPT
        assert res.visit_order == expected


# -- counting ------------------------------------------------------------------

def test_max_order_generator_examples():
    group, gens = abelian_group((4, 2))
    assert max_order_generator(group, gens) == (1, 4)
    group, gens = abelian_group((2, 2))
    assert max_order_generator(group, gens) == (1, 2)  # tie breaks low
    group, gens = abelian_group((5,))
    assert max_order_generator(group, gens) == (1, 5)


def test_counter_values_walk():
    group, gens = abelian_group((4, 2))
    cay = cayley_graph(group, gens)
    vals = counter_values(cay, 1)
    assert len(vals) == 4 and len(set(vals)) == 4
    assert counting_capacity(4, 2) == 16


def test_count_to_max_order_program_accepts():
    for mods in [(4, 2), (2, 2)]:
        group, gens = abelian_group(mods)
        cay = cayley_graph(group, gens)
        prog = count_to_max_order_program(2)
        assert interpret(prog, cay.graph).verdict is Verdict.ACCEPT


def test_count_to_max_order_rejects_outranked_guess():
    # pin the guessed generator to the short one: verification must die
    from jaglab.lang import parse_program
    group, gens = abelian_group((4, 2))
    cay = cayley_graph(group, gens)
    assert element_order(group, gens[1]) == 2 < element_order(group, gens[0])
    src = count_to_max_order_program(2).source.replace(
        "dir m : 1..d", "dir m : {2}")
    pinned = parse_program(src)
    assert interpret(pinned, cay.graph).verdict is Verdict.REJECT


# -- abelian canonical machinery ----------------------------------------------

def test_e_values_examples(abelian_corpus):
    group, gens = abelian_group((4, 2))
    assert abelian_e_values(group, gens) == (4, 2)
    group, gens = abelian_group((4, 2), [(1, 1), (0, 1)])
    assert abelian_e_values(group, gens) == (4, 2)
    for moduli, _, group, gens, _ in abelian_corpus:
        es = abelian_e_values(group, gens)
        prod = 1
        for e in es:
            prod *= e
        assert prod == group.order


def test_canonical_exponents_examples():
    group, gens = abelian_group((4, 2))
    assert abelian_canonical_exponents(group, gens, (0, 0)) == (0, 0)
    assert abelian_canonical_exponents(group, gens, (3, 1)) == (3, 1)
    assert abelian_canonical_path(group, gens, (3, 1)) == (1, 1, 1, 2)


def test_canonical_uniqueness_small(abelian_corpus):
    for moduli, _, group, gens, _ in abelian_corpus:
        if group.order > 16:
            continue
        es = abelian_e_values(group, gens)
        hits = {}
        for digits in digit_tuples(es):
            x = group.identity
            for g, t in zip(gens, digits):
                x = group.multiply(power(group, g, t), x)
            hits.setdefault(x, []).append(digits)
        assert all(len(v) == 1 for v in hits.values())
        assert len(hits) == group.order


def test_nmax_path_characterization():
    # any equal-length path of the canonical generators reaching gmax_i is
    # the canonical one
    group, gens = abelian_group((4, 2), [(1, 1), (0, 1)])
    es = abelian_e_values(group, gens)
    for i in range(1, len(gens) + 1):
        nmax = sum(e - 1 for e in es[:i])
        gmax = group.identity
        for g, e in zip(gens[:i], es[:i]):
            gmax = group.multiply(power(group, g, e - 1), gmax)
        sols = []
        for digits in itertools.product(*(range(nmax + 1) for _ in range(i))):
            if sum(digits) != nmax:
                continue
            x = group.identity
            for g, t in zip(gens[:i], digits):
                x = group.multiply(power(group, g, t), x)
            if x == gmax and all(t < e for t, e in zip(digits, es)):
                sols.append(digits)
        assert sols == [tuple(e - 1 for e in es[:i])]


def test_abelian_ordering_run_examples(abelian_corpus):
    for moduli, gens_arg, group, gens, cay in abelian_corpus:
        order, states = abelian_ordering_run(cay)
        assert len(order) == group.order
        assert len(set(order)) == group.order
        assert order == tower_order(cay.graph, abelian_tower(cay))
        assert states[-1].nmax == sum(e - 1 for e in
                                      abelian_e_values(group, gens))


def test_abelian_ordering_matches_grid_program(grid_cayleys):
    for key in [(1, 5), (2, 3)]:
        cay = grid_cayleys[key]
        order, _ = abelian_ordering_run(cay)
        res = interpret(grid_traversal_program(), cay.graph)
        assert tuple(order) == res.visit_order


def test_abelian_tower_program_verified(abelian_corpus):
    for moduli, gens_arg, group, gens, cay in abelian_corpus:
        if group.order > 9:
            continue
        tower = abelian_tower(cay)
        expected = tuple(check_tower(cay.graph, tower))
        prog = tower_program(tower)
        res = interpret(prog, cay.graph)
        assert res.verdict is Verdict.ACCEPT
        assert res.visit_order == expected
        jag = compile_program(prog, cay.graph.degree)
        cg = build_config_graph(jag, cay.graph)
        trav, _ = check_traversable(jag, cay.graph, config_graph=cg)
        ordb, order = check_orderable(jag, cay.graph, config_graph=cg)
        assert trav and ordb and order == expected


# -- symmetric ordering --------------------------------------------------------

@pytest.mark.parametrize("n,count", [(2, 2), (3, 6), (4, 24)])
def test_symmetric_ordering_bijective(n, count):
    group, gens = symmetric_group(n)
    cay = cayley_graph(group, gens)
    order = symmetric_ordering_run(cay)
    assert len(order) == count
    assert len(set(order)) == count


def test_symmetric_tower_program_s3():
    group, gens = symmetric_group(3)
    cay = cayley_graph(group, gens)
    tower = symmetric_tower(3)
    expected = tuple(check_tower(cay.graph, tower))
    prog = tower_program(tower)
    res = interpret(prog, cay.graph)
    assert res.verdict is Verdict.ACCEPT and res.visit_order == expected
    jag = compile_program(prog, 2)
    ordb, order = check_orderable(jag, cay.graph)
    assert ordb and order == expected


# -- wreath arithmetic ---------------------------------------------------------

def _wreath(hmod):
    A, ag = grid_group(1, 2)
    B, bg = grid_group(1, hmod) if hmod != 4 else abelian_group((2, 2))
    return wreath_structure(A, ag, B, bg)


def test_is_number_examples():
    ws = _wreath(2)
    assert wreath_is_number(ws, ws.group.identity)
    g = ws.g_gens[0]
    h = ws.h_gens[0]
    assert wreath_is_number(ws, ws.delta_left(g))
    assert wreath_value(ws, ws.delta_left(g)) == 1
    assert not wreath_is_number(ws, ws.delta_right(h))


def test_is_number_program_all_targets():
    ws = _wreath(2)
    prog = is_number_program(ws)
    for x in ws.group.elements:
        cay = cayley_graph(ws.group, ws.gens, targetnode=x)
        res = interpret(prog, cay.graph, Limits(max_configs=500_000))
        assert (res.verdict is Verdict.ACCEPT) == wreath_is_number(ws, x)


def test_testf_examples():
    ws = _wreath(2)
    g = ws.g_gens[0]
    one_h = ws.H.identity
    other_h = ws.h_gens[0]
    assert wreath_testf(ws, ws.group.identity, one_h)
    assert wreath_testf(ws, ws.group.identity, other_h)
    assert not wreath_testf(ws, ws.delta_left(g), one_h)
    assert wreath_testf(ws, ws.delta_left(g), other_h)


@pytest.mark.parametrize("hmod", [2, 3])
def test_testf_walk_agrees(hmod):
    ws = _wreath(hmod)
    cay = cayley_graph(ws.group, ws.gens)
    reps = [x for x in ws.group.elements if wreath_is_number(ws, x)]
    for x in reps:
        for h in ws.H.elements:
            assert wreath_testf(ws, x, h) == wreath_testf_by_walk(ws, cay, x, h)


def test_canonical_path_identity_empty():
    ws = _wreath(2)
    cay = cayley_graph(ws.group, ws.gens)
    assert wreath_canonical_path(ws, cay, ws.group.identity) == ()


@pytest.mark.parametrize("hmod", [2, 3])
def test_canonical_path_endpoint_and_blocks(hmod):
    ws = _wreath(hmod)
    cay = cayley_graph(ws.group, ws.gens)
    for x in ws.group.elements:
        if not wreath_is_number(ws, x):
            continue
        path = wreath_canonical_path(ws, cay, x)
        assert target(cay.graph, cay.graph.startnode, path) == cay.node_of[x]
        assert wreath_block_count(ws, cay, path) == wreath_value(ws, x)


def test_same_and_successor_exhaustive():
    for hmod in (2, 3, 4):
        ws = _wreath(hmod)
        reps = [x for x in ws.group.elements if wreath_is_number(ws, x)]
        for x in reps:
            for y in reps:
                vx, vy = wreath_value(ws, x), wreath_value(ws, y)
                assert wreath_same(ws, x, y) == (vx == vy)
                assert wreath_successor(ws, x, y) == (vy == vx + 1)


def test_successor_chain_saturates():
    ws = _wreath(4)
    x = wreath_zero(ws)
    for k in range(ws.H.order):
        y = wreath_increment(ws, x)
        assert wreath_successor(ws, x, y)
        x = y
    assert wreath_value(ws, x) == ws.H.order
    with pytest.raises(OverflowError):
        wreath_increment(ws, x)


def test_register_machine_doubling_and_overflow():
    ws = _wreath(4)
    assert run_register_machine(doubling_machine(), ws, inputs=(2,)) == 4
    with pytest.raises(OverflowError):
        run_register_machine(doubling_machine(), ws, inputs=(3,))


def test_register_machine_halt_and_dec_errors():
    ws = _wreath(2)
    halt = RegisterMachine(1, (("halt",),))
    assert run_register_machine(halt, ws) == 0
    naked_dec = RegisterMachine(1, (("dec", 0), ("halt",)))
    with pytest.raises(InputError):
        run_register_machine(naked_dec, ws)
    with pytest.raises(InputError):
        RegisterMachine(1, (("inc", 5),))


# -- product orderings ----------------------------------------------------------

def test_product_ordering_nested():
    order = product_ordering(["a", "b"], [0, 1])
    assert order == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]
    assert product_ordering(["a", "b"], [0]) == [("a", 0), ("b", 0)]


def test_product_ordering_matches_direct_tower(grid_cayleys):
    from jaglab.groups import direct_product
    from jaglab.algorithms import direct_tower
    group, gens = direct_product(*grid_group(1, 2), *grid_group(1, 3))
    cay = cayley_graph(group, gens)
    a_cay = grid_cayleys[(1, 2)]
    b_cay = cayley_graph(*grid_group(1, 3))
    tower = direct_tower(abelian_tower(a_cay), abelian_tower(b_cay), 1)
    order = check_tower(cay.graph, tower)
    pairs = product_ordering([(0,), (1,)], [(0,), (1,), (2,)])
    assert order == [cay.node_of[p] for p in pairs]


def test_replacement_product_ordering(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph
    r = reduce_degree(g)
    order = replacement_product_ordering([0, 1, 2, 3], g.degree, [1, 2])
    assert len(order) == 8 and len(set(order)) == 8
    assert set(order) == set(range(8))
    # single-node outer graph: just the cycle order
    assert replacement_product_ordering([0], 2, [2, 1]) == [1, 0]
    with pytest.raises(InputError):
        replacement_product_ordering([0], 2, [1])


def test_replacement_cross_edge_definition(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph
    r = reduce_degree(g)
    for v in range(g.num_nodes):
        for j in range(1, g.degree + 1):
            assert r.rho[v * g.degree + (j - 1)][2] == \
                g.rho[v][j - 1] * g.degree + (j - 1)


# -- wreath tower ordering -------------------------------------------------------

def test_wreath_tower_covers():
    ws = _wreath(2)
    cay = cayley_graph(ws.group, ws.gens)
    a_cay = cayley_graph(ws.G, ws.g_gens)
    b_cay = cayley_graph(ws.H, ws.h_gens)
    tower = wreath_tower(ws, abelian_tower(a_cay), abelian_tower(b_cay))
    order = check_tower(cay.graph, tower)
    assert len(order) == 8


def test_check_tower_rejects_non_injective(grid_cayleys):
    g = grid_cayleys[(1, 2)].graph
    bad = CanonicalTower((TowerPosition((1,), 2), TowerPosition((1,), 2)))
    with pytest.raises(InputError):
        check_tower(g, bad)


# -- negative controls ------------------------------------------------------------

def test_jump_to_target_not_traversable(grid_cayleys):
    jag = compile_program(jump_to_target_program(), 2)
    for key in [(2, 2), (2, 3)]:
        g = grid_cayleys[key].graph
        flag, _ = check_traversable(jag, g)
        assert not flag


def test_two_tour_guesser_traversable_not_orderable():
    g = LabelledGraph(2, 1, ((0,), (1,)), 0, 1)
    jag = compile_program(two_tour_guesser_program(), 1)
    trav, _ = check_traversable(jag, g)
    ordb, _ = check_orderable(jag, g)
    assert trav and not ordb


def test_ordering_runs_stable_across_repeats(grid_cayleys):
    cay = grid_cayleys[(2, 3)]
    assert abelian_ordering_run(cay) == abelian_ordering_run(cay)
    scay = cayley_graph(*symmetric_group(3))
    assert symmetric_ordering_run(scay) == symmetric_ordering_run(scay)


def test_abelian_ordering_state_invariants(abelian_corpus):
    for moduli, gens_arg, group, gens, cay in abelian_corpus:
        if group.order > 16:
            continue
        es = abelian_e_values(group, gens)
        _, states = abelian_ordering_run(cay)
        for i, st in enumerate(states):
            assert st.index == i
            assert st.nmax == sum(e - 1 for e in es[:i])
            word = []
            for j, e in enumerate(es[:i], start=1):
                word += [j] * (e - 1)
            assert st.gmax == target(cay.graph, cay.graph.startnode, word)


def test_symmetric_tower_program_s4_model_checked():
    group, gens = symmetric_group(4)
    cay = cayley_graph(group, gens)
    tower = symmetric_tower(4)
    expected = tuple(check_tower(cay.graph, tower))
    jag = compile_program(tower_program(tower), 2)
    cg = build_config_graph(jag, cay.graph, Limits(max_configs=2_000_000))
    trav, _ = check_traversable(jag, cay.graph, config_graph=cg)
    ordb, order = check_orderable(jag, cay.graph, config_graph=cg)
    assert trav and ordb and order == expected


def test_tower_program_leaves_no_reference_cycle():
    """Making sym:n=4's tower program, compiling it and verifying the
    automaton leave nothing for the cyclic collector: with it paused, a
    collection afterwards finds no unreachable object."""
    import gc
    from jaglab.families import parse_family
    from jaglab.machine import verify
    family = parse_family("sym:n=4")
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        jag = compile_program(tower_program(family.tower),
                              family.graph.degree)
        assert verify(jag, family.graph).orderable
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


def test_wreath_tower_program_z2_wr_z3_model_checked():
    ws = _wreath(3)
    cay = cayley_graph(ws.group, ws.gens)
    tower = wreath_tower(
        ws, abelian_tower(cayley_graph(ws.G, ws.g_gens)),
        abelian_tower(cayley_graph(ws.H, ws.h_gens)))
    expected = tuple(check_tower(cay.graph, tower))
    jag = compile_program(tower_program(tower), cay.graph.degree)
    cg = build_config_graph(jag, cay.graph, Limits(max_configs=2_000_000))
    trav, _ = check_traversable(jag, cay.graph, config_graph=cg)
    ordb, order = check_orderable(jag, cay.graph, config_graph=cg)
    assert trav and ordb and order == expected


def test_model_checker_catches_broken_grid_variant(grid_cayleys):
    # accepting without the final all-maxed verification lets runs stop after
    # any prefix of the tour; the checker must refuse traversability
    from jaglab.lang import parse_program
    src = grid_traversal_program().source
    lines = src.splitlines()
    idx = next(i for i, l in enumerate(lines) if l.strip() == "curtrace := s")
    broken = parse_program("\n".join(lines[:idx] + ["accept"]))
    g = grid_cayleys[(2, 3)].graph
    jag = compile_program(broken, 2)
    trav, _ = check_traversable(jag, g)
    assert not trav
    # and a zero increment at the guessed position only revisits older
    # nodes: dropping that check must keep the program correct
    idx = next(i for i, l in enumerate(lines)
               if "real increment" in l)
    weakened = parse_program("\n".join(lines[:idx] + lines[idx + 5:]))
    jag = compile_program(weakened, 2)
    ordb, order = check_orderable(jag, g)
    expected = interpret(grid_traversal_program(), g).visit_order
    assert ordb and order == expected
