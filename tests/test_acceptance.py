"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (visible with ``pytest -s`` or in captured output)."""

import random
import time
from contextlib import contextmanager

from jaglab.graph import (LabelledGraph, disjoint_union, reachable_set,
                          reduce_degree)
from jaglab.groups import (cayley_graph, grid_group, power, symmetric_group,
                           wreath_structure)
from jaglab.lang import compile_program, interpret
from jaglab.machine import (Limits, Verdict, accepts, build_config_graph,
                            check_orderable, check_traversable,
                            decide_co_st_connectivity)
from jaglab.algorithms import (abelian_e_values, abelian_ordering_run,
                               abelian_tower, digit_tuples,
                               grid_traversal_program, jump_to_target_program,
                               symmetric_tower, tower_program,
                               two_tour_guesser_program, wreath_tower)
from jaglab.spotcheck import run_spotcheck

import test_algorithms as algorithm_tests
import test_groups as group_tests
from conftest import GRID_CASES


@contextmanager
def criterion(number, name, budget_s):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL ({time.time() - t0:.1f}s)")
        raise
    elapsed = time.time() - t0
    status = "PASS" if elapsed < budget_s else "FAIL (over time budget)"
    print(f"ACCEPTANCE {number} ({name}): {status} "
          f"({elapsed:.1f}s < {budget_s}s)")
    assert elapsed < budget_s


def test_criterion_1_semantics_oracle_equivalence():
    with criterion(1, "accepts vs run enumeration", 10):
        result = run_spotcheck(pairs=50, seed=2024, max_configs=10_000)
        assert result.pairs >= 50
        assert result.agreements == result.pairs


def test_criterion_2_grid_traversal(grid_cayleys):
    with criterion(2, "grid traversal order", 60):
        prog = grid_traversal_program()
        for d, l in GRID_CASES:
            cay = grid_cayleys[(d, l)]
            g = cay.graph
            expected = tuple(cay.node_of[t] for t in digit_tuples((l,) * d))
            jag = compile_program(prog, g.degree)
            cg = build_config_graph(jag, g, Limits(max_configs=2_000_000))
            trav, _ = check_traversable(jag, g, config_graph=cg)
            ordb, order = check_orderable(jag, g, config_graph=cg)
            assert trav, (d, l)
            assert ordb, (d, l)
            assert order == expected, (d, l)


def test_criterion_3_abelian_ordering(abelian_corpus):
    with criterion(3, "abelian canonical ordering", 60):
        assert len(abelian_corpus) >= 10
        for moduli, gens_arg, group, gens, cay in abelian_corpus:
            assert group.order <= 64
            es = abelian_e_values(group, gens)
            prod = 1
            for e in es:
                prod *= e
            assert prod == group.order
            # canonical-path uniqueness by brute force over all digit words
            seen = {}
            for digits in digit_tuples(es):
                x = group.identity
                for gen, t in zip(gens, digits):
                    x = group.multiply(power(group, gen, t), x)
                assert x not in seen, (moduli, gens_arg, digits, seen[x])
                seen[x] = digits
            assert len(seen) == group.order
            order, _ = abelian_ordering_run(cay)
            assert len(order) == group.order
            assert len(set(order)) == group.order
        assert any(gens_arg is not None for _, gens_arg, *_ in abelian_corpus)


def test_criterion_4_symmetric_group():
    with criterion(4, "symmetric canonical forms", 10):
        for n in range(2, 7):  # each k-cycle is reached by its word p_k
            group_tests.test_p_k_path_is_k_cycle(n)
        for n, count in ((2, 2), (3, 6), (4, 24)):
            algorithm_tests.test_symmetric_ordering_bijective(n, count)


def test_criterion_5_wreath_arithmetic():
    with criterion(5, "wreath counting", 30):
        # the support identity by full enumeration on Z2 wr Z2 and Z2 wr Z3
        for hmod in (2, 3):
            group_tests.test_point_support_equals_conjugate_product(hmod)
        # same/successor vs the support-count oracle, all pairs, |H| <= 4
        algorithm_tests.test_same_and_successor_exhaustive()
        # register-machine doubling saturates exactly at |H| = 4
        algorithm_tests.test_register_machine_doubling_and_overflow()


def _connectivity_instances(grid_cayleys, abelian_corpus):
    """(automaton, graph, expected) across the families, 20 of each verdict."""
    out = []

    def add(jag, g):
        want = "connected" if g.targetnode in reachable_set(g, g.startnode) \
            else "disconnected"
        out.append((jag, g, want))

    for d, l in GRID_CASES:
        cay = grid_cayleys[(d, l)]
        g = cay.graph
        jag = compile_program(grid_traversal_program(), g.degree)
        connected = LabelledGraph(g.num_nodes, g.degree, g.rho, g.startnode,
                                  g.num_nodes - 1)
        add(jag, connected)
        add(jag, disjoint_union(g, g))

    for moduli, gens_arg, group, gens, cay in abelian_corpus:
        if group.order > 16:
            continue
        g = cay.graph
        jag = compile_program(tower_program(abelian_tower(cay)), g.degree)
        connected = LabelledGraph(g.num_nodes, g.degree, g.rho, g.startnode,
                                  g.num_nodes // 2)
        add(jag, connected)
        add(jag, disjoint_union(g, g))

    group, gens = symmetric_group(3)
    cay = cayley_graph(group, gens)
    jag = compile_program(tower_program(symmetric_tower(3)), 2)
    add(jag, LabelledGraph(6, 2, cay.graph.rho, cay.graph.startnode, 5))
    add(jag, disjoint_union(cay.graph, cay.graph))

    ws = wreath_structure(*grid_group(1, 2), *grid_group(1, 2))
    cay = cayley_graph(ws.group, ws.gens)
    tower = wreath_tower(
        ws, abelian_tower(cayley_graph(ws.G, ws.g_gens)),
        abelian_tower(cayley_graph(ws.H, ws.h_gens)))
    jag = compile_program(tower_program(tower), cay.graph.degree)
    add(jag, LabelledGraph(8, 2, cay.graph.rho, cay.graph.startnode, 7))
    add(jag, disjoint_union(cay.graph, cay.graph))

    from jaglab.families import parse_family
    for spec in ["direct(grid:d=1,l=2, grid:d=1,l=3)",
                 "direct(grid:d=1,l=3, grid:d=1,l=2)",
                 "direct(grid:d=1,l=2, grid:d=1,l=2)"]:
        fam = parse_family(spec)
        g = fam.graph
        jag = compile_program(tower_program(fam.tower), g.degree)
        add(jag, LabelledGraph(g.num_nodes, g.degree, g.rho, g.startnode,
                               g.num_nodes - 1))
        add(jag, disjoint_union(g, g))
    return out


def test_criterion_6_co_st_connectivity(grid_cayleys, abelian_corpus):
    with criterion(6, "co-st-connectivity vs reachability", 60):
        instances = _connectivity_instances(grid_cayleys, abelian_corpus)
        connected = [i for i in instances if i[2] == "connected"]
        disconnected = [i for i in instances if i[2] == "disconnected"]
        assert len(connected) >= 20 and len(disconnected) >= 20
        for jag, g, want in instances:
            assert decide_co_st_connectivity(
                jag, g, Limits(max_configs=2_000_000)) == want


def _bisim_corpus(grid_cayleys, abelian_corpus):
    corpus = []
    prog = grid_traversal_program()
    for d, l in GRID_CASES:
        corpus.append((prog, grid_cayleys[(d, l)].graph))
    for moduli, gens_arg, group, gens, cay in abelian_corpus:
        if group.order > 9:
            continue
        corpus.append((tower_program(abelian_tower(cay)), cay.graph))
    cay = cayley_graph(*symmetric_group(3))
    corpus.append((tower_program(symmetric_tower(3)), cay.graph))
    ws = wreath_structure(*grid_group(1, 2), *grid_group(1, 2))
    wcay = cayley_graph(ws.group, ws.gens)
    tower = wreath_tower(
        ws, abelian_tower(cayley_graph(ws.G, ws.g_gens)),
        abelian_tower(cayley_graph(ws.H, ws.h_gens)))
    corpus.append((tower_program(tower), wcay.graph))
    g22 = grid_cayleys[(2, 2)].graph
    corpus.append((jump_to_target_program(), g22))
    corpus.append((two_tour_guesser_program(),
                   LabelledGraph(2, 1, ((0,), (1,)), 0, 1)))
    return corpus


def test_criterion_7_compiler_bisimulation(grid_cayleys, abelian_corpus):
    with criterion(7, "interpreter/compiler agreement", 120):
        limits = Limits(max_configs=2_000_000)
        for prog, g in _bisim_corpus(grid_cayleys, abelian_corpus):
            res = interpret(prog, g, limits)
            jag = compile_program(prog, g.degree)
            cg = build_config_graph(jag, g, limits)
            verdict = accepts(jag, g, config_graph=cg)
            assert verdict is res.verdict
            if jag.curr is None or verdict is not Verdict.ACCEPT:
                continue
            trav, _ = check_traversable(jag, g, config_graph=cg)
            ordb, order = check_orderable(jag, g, config_graph=cg)
            if ordb:
                assert order == res.visit_order
            # the interpreter's accepting run must match machine coverage
            if trav:
                assert set(res.visit_order) >= reachable_set(g, g.startnode)


def test_criterion_8_degree_reduction():
    with criterion(8, "degree reduction preserves components", 30):
        rng = random.Random(404)
        for _ in range(20):
            n = rng.randint(2, 8)
            d = rng.randint(1, 3)
            rows = tuple(tuple(rng.randrange(n) for _ in range(d))
                         for _ in range(n))
            g = LabelledGraph(n, d, rows, 0, rng.randrange(n))
            r = reduce_degree(g)
            reach_g = [reachable_set(g, v) for v in range(n)]
            reach_r = [reachable_set(r, v * d) for v in range(n)]
            for u in range(n):
                for v in range(n):
                    mutual_g = v in reach_g[u] and u in reach_g[v]
                    mutual_r = v * d in reach_r[u] and u * d in reach_r[v]
                    assert mutual_g == mutual_r


def test_criterion_9_negative_controls(grid_cayleys, abelian_corpus):
    with criterion(9, "negative controls", 60):
        jump_prog = jump_to_target_program()
        graphs = [grid_cayleys[key].graph for key in GRID_CASES]
        graphs += [cay.graph for _, _, group, _, cay in abelian_corpus
                   if group.order <= 16]
        graphs.append(cayley_graph(*symmetric_group(3)).graph)
        for g in graphs:
            assert g.num_nodes > 1
            jag = compile_program(jump_prog, g.degree)
            flag, _ = check_traversable(jag, g)
            assert not flag
        two = LabelledGraph(2, 1, ((0,), (1,)), 0, 1)
        jag = compile_program(two_tour_guesser_program(), 1)
        trav, _ = check_traversable(jag, two)
        ordb, _ = check_orderable(jag, two)
        assert trav and not ordb
