import dataclasses
import gc
import itertools
import operator
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from jaglab import machine, spotcheck
from jaglab.errors import DiagnosticError, InputError, ResourceLimitExceeded
from jaglab.graph import LabelledGraph, disjoint_union, reachable_set
from jaglab.groups import abelian_group, cayley_graph, symmetric_group
from jaglab.lang import ProgramSpace, compile_program, interpret, parse_program
from jaglab.machine import (Configuration, Limits, NdJag, RunResult, Verdict,
                            accepting_run_visits, accepts, all_partitions,
                            apply_moves, build_config_graph, check_orderable,
                            check_traversable, decide_co_st_connectivity,
                            enumerate_runs, expand, first_visits,
                            initial_config, parse_jag, partition_of,
                            replay_curr_visits, run, serialize_jag, verify)
from jaglab.families import parse_family
from jaglab.algorithms import (grid_traversal_program, symmetric_tower,
                               tower_program, two_tour_guesser_program)
from jaglab.spotcheck import (Expected, disagreement, expected, random_graph,
                              random_jag, run_tree_nodes)

from conftest import (MANY_PEBBLES, assert_steps_match_oracle, cycle,
                      decoded, oracle_successors, random_program, search_tree,
                      successors)


def _selfs(p):
    return tuple(-(i + 1) for i in range(p))


def sym4_tower():
    """The sym:n=4 tower program, compiled, on its Cayley graph."""
    g = cayley_graph(*symmetric_group(4)).graph
    return compile_program(tower_program(symmetric_tower(4)), g.degree), g


def walker_jag():
    """Walk pebble 1 along label 1 until it meets t (pebble 2), accept."""
    rules = {
        ("q0", (1, 2)): ((("q0", (1, -2))),),
        ("q0", (1, 1)): ((("qa", _selfs(2))),),
    }
    return NdJag("q0", "qa", 2, s=1, t=2, delta=rules)


def test_partition_canonical():
    assert partition_of((5, 5, 5)) == (1, 1, 1)
    assert partition_of((1, 2, 3)) == (1, 2, 3)
    assert partition_of((4, 7, 4)) == (1, 2, 1)


def test_all_partitions_count():
    # Bell numbers 1, 2, 5, 15
    for p, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
        assert len(list(all_partitions(p))) == bell


def _partitions_by_recursion(p):
    """The canonical partition vectors of p pebbles by the recursion over
    prefixes, in its order: the reference for ``all_partitions``'s loop."""
    out = []

    def extend(prefix):
        if len(prefix) == p:
            out.append(tuple(prefix))
            return
        for v in sorted(set(prefix)) + [len(prefix) + 1]:
            extend(prefix + [v])

    extend([1] if p else [])
    return out


def test_all_partitions_keeps_its_order_and_leaves_no_cyclic_garbage():
    # the lowering digest pins this order, and the state graph of a
    # program calls it inside searches that pause the collector
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        got = [list(all_partitions(p)) for p in range(7)]
        assert gc.collect() == 0
    finally:
        (gc.enable if collecting else gc.disable)()
    assert got == [_partitions_by_recursion(p) for p in range(7)]
    assert got[0] == [()] and got[3] == [(1, 1, 1), (1, 1, 3), (1, 2, 1),
                                         (1, 2, 2), (1, 2, 3)]


def test_initial_config_grid22(grid_cayleys):
    cay = grid_cayleys[(2, 2)]
    g = cay.graph
    g = LabelledGraph(g.num_nodes, g.degree, g.rho, g.startnode,
                      cay.node_of[(1, 1)])
    jag = NdJag("q0", "qa", 3, s=1, t=2, curr=3, delta={})
    c = initial_config(jag, g)
    assert c.state == "q0"
    assert c.nodes == (0, 3, 0)


def test_initial_config_target_equals_start(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph
    jag = NdJag("q0", "qa", 3, s=1, t=2, curr=3, delta={})
    c = initial_config(jag, g)
    assert partition_of(c.nodes) == (1, 1, 1)


def test_initial_config_single_pebble(grid_cayleys):
    cay = grid_cayleys[(2, 2)]
    g = LabelledGraph(4, 2, cay.graph.rho, 0, 3)
    jag = NdJag("q0", "qa", 1, s=1, t=1, delta={})
    assert initial_config(jag, g).nodes == (3,)


def test_step_mutual_jump_swaps(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph
    rules = {("q0", (1, 2)): (("q1", (-2, -1)),)}
    jag = NdJag("q0", "qa", 2, delta=rules)
    succs = successors(jag, g)(Configuration("q0", (0, 3)))
    assert succs == [Configuration("q1", (3, 0))]


def test_step_dead_configuration(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph
    jag = NdJag("q0", "qa", 2, delta={})
    assert successors(jag, g)(Configuration("q0", (0, 0))) == []


@pytest.mark.parametrize("nodes", [(0, 4), (0, -1), (0,), (0, 1, 2), (0, 1.0)])
def test_successors_reject_a_placement_off_the_graph(grid_cayleys, nodes):
    # a placement off the 4-node graph would pack into another
    # configuration's int
    jag = NdJag("q0", "qa", 2, delta={})
    with pytest.raises(InputError, match="places 2 pebbles"):
        successors(jag, grid_cayleys[(2, 2)].graph)(Configuration("q0", nodes))


def test_step_move_along(grid_cayleys):
    g = grid_cayleys[(1, 5)].graph  # a single cycle
    rules = {("q0", (1,)): (("q0", (1,)),)}
    jag = NdJag("q0", "qa", 1, s=1, t=1, delta=rules)
    succs = successors(jag, g)(Configuration("q0", (0,)))
    assert succs == [Configuration("q0", (1,))]


def test_move_label_above_degree_is_input_error(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph  # degree 2
    # label 3 only becomes applicable after a first step, at a new key
    rules = {("q0", (1,)): (("q1", (-1,)),),
             ("q1", (1,)): (("qa", (3,)),)}

    def fn(state, pi):
        return rules.get((state, pi), ())

    for delta in (rules, fn):
        jag = NdJag("q0", "qa", 1, s=1, t=1, delta=delta)
        with pytest.raises(InputError, match="move label 3 exceeds degree 2"):
            build_config_graph(jag, g)
        with pytest.raises(InputError, match="move label 3 exceeds degree 2"):
            verify(jag, g)


@pytest.mark.parametrize("moves, message", [
    ((0,), "bad move encoding 0"),
    ((-2,), "bad move encoding -2"),
    ((-1, -1), "move vector length"),
])
def test_callable_delta_moves_are_checked(grid_cayleys, moves, message):
    # a rule table is checked when the automaton is made, a callable when
    # the build first asks it
    jag = NdJag("q0", "qa", 1, s=1, t=1,
                delta=lambda state, pi: (("qa", moves),) if state == "q0" else ())
    with pytest.raises(InputError, match=message):
        build_config_graph(jag, grid_cayleys[(2, 2)].graph)
    with pytest.raises(InputError, match=message):
        NdJag("q0", "qa", 1, s=1, t=1, delta={("q0", (1,)): (("qa", moves),)})


@pytest.mark.parametrize("pairs", [
    ((1, 0),), ((0, 0),), ((0, 2),), ((-1, 1),), ((0, 1, 2),), (0,),
    ([0, 1],), ((0, 1.0),), None,
])
def test_observed_pairs_are_checked(grid_cayleys, pairs):
    # observes is asked when the build first meets a state: q1 is met one
    # step in, after q0's pair (0, 1) has passed the check
    jag = NdJag("q0", "qa", 2, s=1, t=2,
                delta=lambda state, pi: (("q1", (1, 1)),),
                observes=lambda state: ((0, 1),) if state == "q0" else pairs)
    with pytest.raises(InputError, match="^state 'q1' observes"):
        build_config_graph(jag, grid_cayleys[(2, 2)].graph)


def test_unobserved_co_located_jump_is_kept():
    # both pebbles start on node 0; in q pebble 1 jumps to pebble 2's old
    # node as 2 walks on.  q observes nothing, so (0, 0) and (0, 1) share
    # one key, and the jump, a no-op at (0, 0), must move 1 at (0, 1)
    g = LabelledGraph(3, 1, ((1,), (2,), (0,)), 0, 0)
    jag = NdJag("q", "qa", 2, s=1, t=2,
                delta=lambda state, pi: (("q", (-2, 1)),) if state == "q" else (),
                observes=lambda state: ())
    cg = build_config_graph(jag, g)
    assert list(decoded(cg)[0]) == [Configuration("q", (0, 0)),
                               Configuration("q", (0, 1)),
                               Configuration("q", (1, 2)),
                               Configuration("q", (2, 0))]
    assert assert_steps_match_oracle(jag, g, cg) == 4


@pytest.mark.parametrize("moves, message", [
    ((-1, -1), "move vector length"),
    ((0,), "bad move encoding 0"),
    ((2,), "move label 2 exceeds degree 1"),
])
def test_oracle_step_checks_moves_like_the_build(moves, message):
    g = LabelledGraph(2, 1, ((1,), (0,)), 0, 1)  # degree 1
    jag = NdJag("q0", "qa", 1, s=1, t=1, curr=1,
                delta=lambda state, pi: (("qa", moves),) if state == "q0" else ())
    with pytest.raises(InputError, match=message):
        build_config_graph(jag, g)
    with pytest.raises(InputError, match=message):
        enumerate_runs(jag, g, max_len=2)
    with pytest.raises(InputError, match=message):
        replay_curr_visits(jag, g, [("qa", moves)])


def test_build_asks_delta_once_per_key(grid_cayleys):
    g = grid_cayleys[(2, 3)].graph
    prog = grid_traversal_program()
    compiled = compile_program(prog, g.degree)
    calls = []

    def counting(state, pi):
        calls.append((state, pi))
        return compiled.transitions(state, pi)

    jag = _wrapper(compiled, counting)
    for _ in range(2):  # the table lives for one build only
        calls.clear()
        parent, _, _ = decoded(build_config_graph(jag, g))
        keys = {(c.state, partition_of(c.nodes)) for c in parent}
        assert len(calls) == len(keys) == len(set(calls))
        assert set(calls) == keys
        assert len(parent) > len(keys)  # keys are shared by configurations

    # the compiled automaton's key is its state and the co-location of the
    # pairs it observes there, a coarser key than the partition
    def observed(state, nodes):
        return state, tuple(nodes[i] == nodes[j]
                            for i, j in compiled.observes(state))

    jag = _wrapper(compiled, counting, observes=compiled.observes)
    for _ in range(2):
        calls.clear()
        parent, _, _ = decoded(build_config_graph(jag, g))
        observed_keys = {observed(*c) for c in parent}
        assert len(calls) == len(observed_keys)
        assert {observed(state, pi) for state, pi in calls} == observed_keys
        assert len(observed_keys) < len(keys)


def _wrapper(jag, delta, observes=None):
    """An automaton like ``jag`` with ``delta`` and ``observes`` of its own."""
    return NdJag(jag.start_state, jag.accept_state, jag.num_pebbles,
                 s=jag.s, t=jag.t, curr=jag.curr, delta=delta,
                 observes=observes)


def _assert_builds_match(jag, g, limits):
    """The build of ``jag`` is that of a wrapper which observes every pair:
    same successors in the same order, as the oracle steps them, parents,
    merges, accepting and limit hit."""
    every = _wrapper(jag, jag.transitions)
    got = build_config_graph(jag, g, limits)
    want = build_config_graph(every, g, limits)
    got_succs, want_succs = successors(jag, g), successors(every, g)
    parent, merges, accepting = decoded(got)
    for c in parent:
        assert got_succs(c) == want_succs(c) == oracle_successors(jag, g, c)
    want_parent, want_merges, want_accepting = decoded(want)
    assert list(parent.items()) == list(want_parent.items())
    assert merges == want_merges
    assert accepting == want_accepting
    assert got.limit_hit == want.limit_hit
    return got


def test_observed_keys_build_what_every_pair_builds():
    rng = random.Random(33)
    hits = set()
    for _ in range(500):
        g = random_graph(rng, max_nodes=5, max_degree=2)
        jag = compile_program(random_program(rng), g.degree)
        for limits in (Limits(), Limits(max_configs=8), Limits(max_run_len=3)):
            hits.add(_assert_builds_match(jag, g, limits).limit_hit)
    assert hits == {None, "max_configs", "max_run_len"}


def test_observed_keys_build_the_ladder_graphs(grid_cayleys):
    g = grid_cayleys[(2, 3)].graph
    grid = compile_program(grid_traversal_program(), g.degree)
    for jag, graph in ((grid, g), sym4_tower()):
        assert decoded(_assert_builds_match(jag, graph, Limits()))[2]


def test_step_simultaneity_is_order_independent(grid_cayleys):
    g = grid_cayleys[(2, 3)].graph
    rng = random.Random(9)
    for _ in range(100):
        nodes = tuple(rng.randrange(g.num_nodes) for _ in range(4))
        moves = tuple(rng.choice([1, 2, -1, -2, -3, -4]) for _ in range(4))
        want = apply_moves(g, nodes, moves)
        # reference: apply pebbles one at a time in shuffled order over a
        # snapshot of the old placement
        order = list(range(4))
        rng.shuffle(order)
        out = [None] * 4
        for i in order:
            mv = moves[i]
            out[i] = g.rho[nodes[i]][mv - 1] if mv > 0 else nodes[-mv - 1]
        assert tuple(out) == want


def test_successors_match_apply_moves_on_random_jags():
    rng = random.Random(31)
    checked = 0
    for _ in range(150):
        g = random_graph(rng, max_nodes=5, max_degree=3)
        jag = random_jag(rng, g.degree, max_pebbles=3)
        checked += assert_steps_match_oracle(jag, g)
    assert checked > 500


def test_successors_match_apply_moves_on_compiled_programs():
    rng = random.Random(32)
    checked = 0
    for _ in range(300):
        g = random_graph(rng, max_nodes=5, max_degree=2)
        jag = compile_program(random_program(rng), g.degree)
        checked += assert_steps_match_oracle(jag, g)
    assert checked > 500


def test_successors_match_apply_moves_on_no_op_jumps():
    # pebbles 1 and 3 start on node 0, pebble 2 (t) on node 2
    g = LabelledGraph(3, 1, ((1,), (2,), (0,)), 0, 2)
    rules = {
        ("q0", (1, 2, 1)): (
            ("q1", (-1, -2, -3)),   # every pebble stays
            ("q2", (-3, -2, -1)),   # 1 and 3 swap on one node
            ("q3", (-2, 1, -1)),    # 1 jumps to another node, 2 moves
            ("q4", (1, -2, -1)),    # 3 jumps to 1's old node as 1 moves
        ),
        ("q3", (1, 2, 2)): (("q0", (-3, -3, -3)),),
        ("q4", (1, 2, 3)): (("q0", (-1, -1, 1)),),
    }
    jag = NdJag("q0", "qa", 3, delta=rules)
    assert assert_steps_match_oracle(jag, g) == 7
    init = initial_config(jag, g)
    stay, swap, _, _ = successors(jag, g)(init)
    # a transition that moves no pebble keeps the placement tuple
    assert stay.nodes is init.nodes and swap.nodes is init.nodes


def _grid_walker(label):
    """Walk pebble 1 along label 1, then once along ``label`` and accept:
    that move's key is first met one level into the search."""
    return NdJag("q0", "qa", 1, s=1, t=1, delta={
        ("q0", (1,)): (("q0", (1,)), ("q1", (1,))),
        ("q1", (1,)): (("qa", (label,)),)})


@pytest.mark.parametrize("caller_enabled", [True, False])
@pytest.mark.parametrize("search", [
    "complete build", "input error", "interpret accept", "max_configs stop"])
def test_expand_restores_the_callers_collector(grid_cayleys, caller_enabled,
                                               search):
    g = grid_cayleys[(2, 3)].graph
    saved = gc.isenabled(), gc.get_threshold()
    try:
        gc.set_threshold(500, 7, 9)
        (gc.enable if caller_enabled else gc.disable)()
        if search == "complete build":
            assert not build_config_graph(_grid_walker(2), g).limit_hit
        elif search == "input error":
            with pytest.raises(InputError, match="exceeds degree"):
                build_config_graph(_grid_walker(3), g)
        elif search == "interpret accept":
            assert interpret(grid_traversal_program(), g).verdict is \
                Verdict.ACCEPT
        else:
            cg = build_config_graph(_grid_walker(2), g, Limits(max_configs=2))
            assert cg.limit_hit == "max_configs"
        assert gc.isenabled() is caller_enabled
        assert gc.get_threshold() == (500, 7, 9)
    finally:
        gc.set_threshold(*saved[1])
        (gc.enable if saved[0] else gc.disable)()


def test_expand_pauses_the_collector():
    during = []

    def succs(n):
        during.append(gc.isenabled())
        return [n + 1] if n < 3 else []

    assert gc.isenabled()
    # N = 0: no configuration is an accept configuration
    space = SimpleNamespace(initial=0, step=succs, N=0, B=0, leaps=(),
                            mask=0)
    parent, _, accepting, limit_hit, fresh = expand(space, Limits())
    assert (len(parent), accepting, limit_hit, fresh) == (4, [], None, 0)
    assert during == [False] * 4 and gc.isenabled()


def test_expand_records_every_edge_off_the_tree():
    # 0 -> 1 -> 2 -> 3 -> 0, each successor listed twice: the second copy
    # of each edge, and the edge back to 0, reach configurations already
    # discovered
    space = SimpleNamespace(initial=0, step=lambda n: [(n + 1) % 4] * 2, N=0,
                            B=0, leaps=(), mask=0)
    parent, merges, accepting, limit_hit, fresh = expand(space, Limits())
    assert parent == {0: None, 1: 0, 2: 1, 3: 2} and limit_hit is None
    assert fresh == 0
    assert accepting == []
    assert merges == [(0, 1), (1, 2), (2, 3), (3, 0), (3, 0)]


def test_parse_and_bind_leave_no_cyclic_garbage():
    # interpret and compile_program bind each program they are given,
    # once per degree
    source = tower_program(symmetric_tower(4)).source
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        parse_program(source).bind(2)
        assert gc.collect() == 0
    finally:
        (gc.enable if collecting else gc.disable)()


@pytest.mark.parametrize("outcome", ["accept", "reject", "max_configs stop"])
def test_interpret_leaves_no_cyclic_garbage(grid_cayleys, outcome):
    # expand pauses the collector, so the interpreter's state-id table,
    # step plans and fold caches must go with reference counting alone
    g = grid_cayleys[(2, 3)].graph
    prog, limits, want = {
        "accept": (grid_traversal_program(2), Limits(), Verdict.ACCEPT),
        "reject": (parse_program("pebble p\nmove p along 1\nif p == s {\n"
                                 "accept\n}"), Limits(), Verdict.REJECT),
        "max_configs stop": (grid_traversal_program(2),
                             Limits(max_configs=50), Verdict.RESOURCE_LIMIT),
    }[outcome]
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert interpret(prog, g, limits).verdict is want
        assert gc.collect() == 0
    finally:
        (gc.enable if collecting else gc.disable)()


def test_accepts_trivial_start_is_accept(grid_cayleys):
    jag = NdJag("qa", "qa", 2, delta={})
    assert accepts(jag, grid_cayleys[(2, 2)].graph) is Verdict.ACCEPT


def test_accepts_walker_on_cycle():
    group, gens = abelian_group((4,))
    cay = cayley_graph(group, gens, targetnode=(1,))
    assert accepts(walker_jag(), cay.graph) is Verdict.ACCEPT


def test_accepts_walker_two_components():
    group, gens = abelian_group((4,))
    g = cayley_graph(group, gens).graph
    two = disjoint_union(g, g)
    assert accepts(walker_jag(), two) is Verdict.REJECT


def test_accepts_resource_limit(grid_cayleys):
    prog = grid_traversal_program()
    jag = compile_program(prog, 2)
    g = grid_cayleys[(2, 2)].graph
    assert accepts(jag, g, Limits(max_configs=1)) is Verdict.RESOURCE_LIMIT


def test_accepts_honours_max_run_len():
    jag, g = sym4_tower()
    limits = Limits(max_run_len=5)
    assert build_config_graph(jag, g, limits).limit_hit == "max_run_len"
    assert accepts(jag, g, limits) is Verdict.RESOURCE_LIMIT


def test_enumerate_trivial_and_dead(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph
    assert enumerate_runs(NdJag("qa", "qa", 2, delta={}), g, 5) == {()}
    assert enumerate_runs(NdJag("q0", "qa", 2, delta={}), g, 5) == frozenset()


def test_traversable_grid_program(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph
    jag = compile_program(grid_traversal_program(), 2)
    flag, witness = check_traversable(jag, g)
    assert flag
    assert set(witness) == set(reachable_set(g, g.startnode))


def test_traversable_cross_checked_with_run_traces(grid_cayleys):
    # every accepting trace places curr on every reachable node
    g = grid_cayleys[(1, 2)].graph
    jag = compile_program(grid_traversal_program(), 1)
    assert check_traversable(jag, g)[0]
    orders = expected(jag, g, 500_000).orders
    reach = reachable_set(g, g.startnode)
    assert orders and all(reach <= set(o) for o in orders)
    # and the orderability witness is the unique first-visit sequence
    ok, canon = check_orderable(jag, g)
    assert ok and orders == {canon}


def test_orderable_requires_curr(grid_cayleys):
    jag = NdJag("q0", "qa", 2, delta={})
    with pytest.raises(InputError):
        check_orderable(jag, grid_cayleys[(2, 2)].graph)


def test_two_tour_guesser_not_orderable():
    g = LabelledGraph(2, 1, ((0,), (1,)), 0, 1)  # two pebbled components
    jag = compile_program(two_tour_guesser_program(), 1)
    trav, _ = check_traversable(jag, g)
    assert trav  # reachable component is just the startnode
    ok, _ = check_orderable(jag, g)
    assert not ok


def test_co_st_connectivity_target_is_start(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph  # target defaults to startnode
    jag = compile_program(grid_traversal_program(), 2)
    assert decide_co_st_connectivity(jag, g) == "connected"


def test_co_st_connectivity_two_components(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph
    two = disjoint_union(g, g)
    jag = compile_program(grid_traversal_program(), 2)
    assert decide_co_st_connectivity(jag, two) == "disconnected"


def test_co_st_ignores_moves_after_acceptance():
    # the only accepting run ends before curr jumps to t; the moves out of
    # the accept configuration belong to no run
    g = LabelledGraph(2, 1, ((0,), (1,)), 0, 1)
    rules = {("q0", (1, 2, 1)): (("acc", (-1, -2, -3)),),
             ("acc", (1, 2, 1)): (("q1", (-1, -2, -2)),),
             ("q1", (1, 2, 2)): (("acc", (-1, -2, -3)),)}
    jag = NdJag("q0", "acc", 3, s=1, t=2, curr=3, delta=rules)
    assert decide_co_st_connectivity(jag, g) == "disconnected"


def avoidance_traversable(cg) -> bool:
    """Reference traversability: for each node v reachable from the
    startnode, search for an accepting run that never places curr on v,
    with the configurations that hold curr on v deleted."""
    jag, g = cg.jag, cg.graph
    curr = jag.curr - 1
    if not decoded(cg)[2]:
        return False

    def avoidable(v) -> bool:
        init = cg.initial
        if init.nodes[curr] == v:
            return False
        seen = {init}
        frontier = [init]
        while frontier:
            config = frontier.pop()
            if config.state == jag.accept_state:
                return True
            for s in oracle_successors(jag, g, config):
                if s not in seen and s.nodes[curr] != v:
                    seen.add(s)
                    frontier.append(s)
        return False

    return not any(avoidable(v) for v in reachable_set(g, g.startnode))


def test_checkers_agree_with_run_enumeration():
    """Every decider against the run-tree oracle, on random automata whose
    accept state has rules, so runs go on past it; traversability also
    against the per-node avoidance search, and ``verify`` against the
    checkers.  Instances the oracle cannot exhaust are skipped and counted.
    """
    rng = random.Random(3)
    kept = skipped = 0
    for _ in range(300):
        g = random_graph(rng)
        jag = random_jag(rng, g.degree)
        if jag.curr is None:
            continue
        cg = build_config_graph(jag, g, Limits(max_configs=2000))
        if cg.limit_hit:
            skipped += 1
            continue
        trav, _ = check_traversable(jag, g, config_graph=cg)
        assert trav == avoidance_traversable(cg)
        ordb, order = check_orderable(jag, g, config_graph=cg)
        report = verify(jag, g)
        assert report.traversable == trav
        assert report.orderable == (trav and ordb)
        assert report.visit_order == order
        exp = expected(jag, g, 20_000)
        if exp is None:
            skipped += 1
            continue
        kept += 1
        assert disagreement(jag, g, cg, exp) is None
    assert kept >= 100 and skipped <= 10


def _cycle3_walk():
    """One pebble (s = t = curr) walks the 3-cycle 0 1 2 and accepts."""
    g = LabelledGraph(3, 1, ((1,), (2,), (0,)), 0, 0)
    jag = NdJag("q0", "acc", 1, s=1, t=1, curr=1, delta={
        ("q0", (1,)): (("q1", (1,)),), ("q1", (1,)): (("acc", (1,)),)})
    return jag, g


@pytest.mark.parametrize("field, wrong", [
    ("verdict", {"accepts": False}), ("traversable", {"traversable": False}),
    ("orderable", {"orderable": False}), ("co-st", {"co_st": "disconnected"}),
    ("visit_order", {"orders": frozenset({(0, 2, 1)})})])
def test_disagreement_names_the_field_that_differs(field, wrong):
    jag, g = _cycle3_walk()
    cg = build_config_graph(jag, g)
    exp = expected(jag, g, 100)
    assert exp == Expected(True, True, True, "connected", {(0, 1, 2)})
    assert disagreement(jag, g, cg, exp) is None
    reason = disagreement(jag, g, cg, dataclasses.replace(exp, **wrong))
    assert reason.startswith(f"{field}: ")


@pytest.mark.parametrize("field, wrong", [
    ("verdict", {"verdict": Verdict.REJECT, "visit_order": None}),
    ("visit_order", {"visit_order": (0, 2, 1)})])
def test_disagreement_checks_the_first_accept_search(monkeypatch, field,
                                                     wrong):
    # every other decider agrees with the oracle; only run is wrong
    jag, g = _cycle3_walk()
    cg = build_config_graph(jag, g)
    exp = expected(jag, g, 100)

    def wrong_run(space, limits=Limits()):
        return dataclasses.replace(machine.run(space, limits), **wrong)

    monkeypatch.setattr(spotcheck, "run", wrong_run)
    reason = disagreement(jag, g, cg, exp)
    assert reason.startswith(f"{field}: ") and "run " in reason


def test_run_tree_count_is_exact():
    """``run_tree_nodes`` passes a budget exactly when ``enumerate_runs``
    runs out of it, and below the budget it is the count that just fits."""
    rng = random.Random(13)
    too_big = fits = 0
    for _ in range(300):
        g = random_graph(rng)
        jag = random_jag(rng, g.degree)
        max_len = rng.randint(0, 12)
        budget = rng.choice((10, 100, 1000))
        count = run_tree_nodes(jag, g, max_len, budget)
        try:
            enumerate_runs(jag, g, max_len, max_tree_nodes=budget)
        except ResourceLimitExceeded:
            assert count > budget
            too_big += 1
            continue
        assert count <= budget
        enumerate_runs(jag, g, max_len, max_tree_nodes=count)
        if count:
            fits += 1
            with pytest.raises(ResourceLimitExceeded):
                enumerate_runs(jag, g, max_len, max_tree_nodes=count - 1)
    assert too_big >= 5 and fits >= 100


def test_orderable_when_a_configuration_merges_prefix_tags():
    # one pebble (s = t = curr) on a 3-cycle; label 1 steps forward, label 2
    # back.  Runs 0,1,0 and 0,0 both enter (q1, 0), with prefixes (0, 1) and
    # (0,) of the canonical order 0, 1, 2; both then go on to 1 and 2.
    g = LabelledGraph(3, 2, ((1, 2), (2, 0), (0, 1)), 0, 0)
    rules = {("q0", (1,)): (("qa", (1,)), ("q1", (-1,))),
             ("qa", (1,)): (("q1", (2,)),),
             ("q1", (1,)): (("q2", (1,)),),
             ("q2", (1,)): (("acc", (1,)),)}
    jag = NdJag("q0", "acc", 1, s=1, t=1, curr=1, delta=rules)
    assert check_orderable(jag, g) == (True, (0, 1, 2))
    # a third run 0,2,0 enters (q1, 0) off the canonical order, and its
    # first-visit sequence becomes 0, 2, 1
    rules[("q0", (1,))] += (("qb", (2,)),)
    rules[("qb", (1,))] = (("q1", (1,)),)
    jag = NdJag("q0", "acc", 1, s=1, t=1, curr=1, delta=rules)
    assert expected(jag, g, 1000).orders == {(0, 1, 2), (0, 2, 1)}
    assert check_traversable(jag, g)[0]
    assert check_orderable(jag, g) == (False, (0, 1, 2))


def _cycle4_jag(rules):
    """A three-pebble rule table on the 4-cycle 0 -> 1 -> 2 -> 3 -> 0, from
    startnode 0 to targetnode 2, with s = 1, t = 2 and curr = 3."""
    g = LabelledGraph(4, 1, ((1,), (2,), (3,), (0,)), 0, 2)
    return NdJag("q0", "acc", 3, s=1, t=2, curr=3, delta=rules), g


def test_accept_below_an_accept_yields_nothing():
    # a tree: curr steps to 1 and accepts; moves out of that accept
    # configuration reach a second one, past the targetnode, that no run
    # enters
    walk = (-1, -2, 1)
    jag, g = _cycle4_jag({("q0", (1, 2, 1)): (("acc", walk),),
                          ("acc", (1, 2, 3)): (("q1", walk),),
                          ("q1", (1, 2, 2)): (("acc", walk),)})
    cg = build_config_graph(jag, g)
    _, merges, accepting = decoded(cg)
    assert merges == []
    assert accepting == [Configuration("acc", (0, 2, 1)),
                         Configuration("acc", (0, 2, 3))]
    # one value, of the one run of one step
    assert list(machine._accept_values(cg, 0, lambda v, c: v + 1, max)) == [1]
    assert decide_co_st_connectivity(jag, g) == "disconnected"
    assert disagreement(jag, g, cg, expected(jag, g, 1000)) is None


def test_merge_out_of_an_accept_configuration_is_no_run_edge(monkeypatch):
    # curr steps to 1 and accepts; the accept configuration's move jumps
    # curr back to s, into the initial configuration, the build's only
    # merge.  No run follows it, so no value is carried along it.
    jag, g = _cycle4_jag({("q0", (1, 2, 1)): (("acc", (-1, -2, 1)),),
                          ("acc", (1, 2, 3)): (("q0", (-1, -2, -1)),)})
    cg = build_config_graph(jag, g)
    assert decoded(cg)[1] == [(Configuration("acc", (0, 2, 1)), cg.initial)]

    def no_worklist(*args):
        raise AssertionError("the worklist ran")

    monkeypatch.setattr(machine, "_carried_values", no_worklist)
    assert check_orderable(jag, g, config_graph=cg) == (True, (0, 1))
    assert disagreement(jag, g, cg, expected(jag, g, 1000)) is None


def test_value_pass_follows_a_cycle():
    # curr walks the cycle and may accept each time it meets t on node 2:
    # after one lap of 0, 1, 2 or after more, which visit 3 as well.  The
    # walk from 3 back into the initial configuration is a merge on a run.
    walk, stay = (-1, -2, 1), (-1, -2, -3)
    jag, g = _cycle4_jag({("q0", (1, 2, 1)): (("q0", walk),),
                          ("q0", (1, 2, 3)): (("q0", walk),),
                          ("q0", (1, 2, 2)): (("acc", stay), ("q0", walk))})
    cg = build_config_graph(jag, g)
    assert decoded(cg)[1] == [(Configuration("q0", (0, 2, 3)), cg.initial)]
    exp = expected(jag, g, 1000)
    assert exp.orders == {(0, 1, 2), (0, 1, 2, 3)}
    # the runs along the tree alone share one order; the cycle breaks it
    assert check_orderable(jag, g, config_graph=cg) == (False, (0, 1, 2))
    assert decide_co_st_connectivity(jag, g, config_graph=cg) == "connected"
    assert disagreement(jag, g, cg, exp) is None


def _runs_into(jag, g):
    """Every run of ``jag`` on ``g``, as its tuple of configurations, under
    the accept configuration it ends at; the graph must have no cycle."""
    succs = successors(jag, g)
    runs = {}
    stack = [(initial_config(jag, g),)]
    while stack:
        run = stack.pop()
        if run[-1].state == jag.accept_state:
            runs.setdefault(run[-1], set()).add(run)
        else:
            stack.extend(run + (s,) for s in succs(run[-1]))
    return runs


def test_merge_target_off_the_tree_paths_joins_its_tree_value():
    # on the 3-cycle 0 -> 1 -> 2 -> 0, curr either walks to 1 (a) or jumps
    # to t on 2 (b), then is jumped back to s on 0 in x: the tree reaches
    # x from a, the merge from b.  No tree path to the one accept
    # configuration passes x: it lies below c.  From x, y and a merge lead
    # on to it, so the run through b, which misses node 1 and leaves the
    # canonical order (0, 1, 2), reaches it only through the worklist.
    walk, stay = (-1, -2, 1), (-1, -2, -3)
    to_s, to_t = (-1, -2, -1), (-1, -2, -2)
    g = LabelledGraph(3, 1, ((1,), (2,), (0,)), 0, 2)
    jag = NdJag("q0", "acc", 3, s=1, t=2, curr=3, delta={
        ("q0", (1, 2, 1)): (("a", walk), ("b", to_t)),
        ("a", (1, 2, 3)): (("x", to_s), ("c", walk)),
        ("b", (1, 2, 2)): (("x", to_s),),
        ("c", (1, 2, 2)): (("acc", stay),),
        ("x", (1, 2, 1)): (("y", to_t),),
        ("y", (1, 2, 2)): (("acc", stay),)})
    cg = build_config_graph(jag, g)
    x, acc = Configuration("x", (0, 2, 0)), Configuration("acc", (0, 2, 2))
    parent, merges, accepting = decoded(cg)
    assert parent[x] == Configuration("a", (0, 2, 1))
    assert merges == [(Configuration("b", (0, 2, 2)), x),
                         (Configuration("y", (0, 2, 2)), acc)]
    assert accepting == [acc] and parent[acc].state == "c"
    exp = expected(jag, g, 1000)
    assert exp.orders == {(0, 1, 2), (0, 2)}
    assert check_traversable(jag, g, config_graph=cg) == (False, (0, 1, 2))
    assert check_orderable(jag, g, config_graph=cg) == (False, (0, 1, 2))
    assert decide_co_st_connectivity(jag, g, config_graph=cg) == "connected"
    assert disagreement(jag, g, cg, exp) is None
    # with every run as a value, the last value the pass yields for the
    # accept configuration holds all three runs: the one along the tree,
    # and the two through x
    runs = _runs_into(jag, g)
    assert len(runs[acc]) == 3
    last = {}
    for paths in machine._accept_values(
            cg, frozenset({(cg.space.initial,)}),
            lambda paths, c: frozenset(p + (c,) for p in paths),
            operator.or_):
        last[next(iter(paths))[-1]] = paths
    decode = cg.space.decode
    assert {decode(c): {tuple(map(decode, p)) for p in paths}
            for c, paths in last.items()} == runs


def _worklist_only(cg, value, extend, join):
    """The value pass as one worklist from the initial configuration over
    every edge, the tree's and the merges, whatever the graph's shape: no
    other configuration starts with a tree value."""
    init = cg.space.initial
    return machine._carried_values(cg, [init], {init: value}.get, extend, join)


def _decider_answers(jag, g, limits):
    """The traversability and orderability flags, the visit order and the
    co-st answer for ``jag`` on ``g``, read off one build, and whether the
    build merges; None if it has no curr pebble or runs out of budget."""
    cg = build_config_graph(jag, g, limits)
    if cg.limit_hit or jag.curr is None:
        return None
    trav, order = check_traversable(jag, g, config_graph=cg)
    try:
        co_st = decide_co_st_connectivity(jag, g, config_graph=cg)
    except DiagnosticError:
        co_st = "DiagnosticError"
    return (trav, check_orderable(jag, g, config_graph=cg), order, co_st,
            bool(decoded(cg)[1]))


def test_tree_values_and_merges_match_the_worklist(monkeypatch):
    """The tree values of the accept configurations, and on a graph with
    merges the worklist from the merge sources, answer as the worklist
    from the initial configuration over every edge does: on ladder
    programs, with connected and disjoint-union inputs, and on random
    automata, whose graphs merge and cycle."""
    cases = []
    for spec, program in (("grid:d=2,l=3", "grid"), ("sym:n=4", "tower"),
                          ("abelian:mod=4,4", "tower"),
                          ("wreath(grid:d=1,l=2, grid:d=1,l=3)", "tower")):
        family = parse_family(spec)
        g = family.graph
        prog = grid_traversal_program(g.degree) if program == "grid" \
            else tower_program(family.tower)
        jag = compile_program(prog, g.degree)
        target = max(reachable_set(g, g.startnode))
        cases += [(jag, dataclasses.replace(g, targetnode=target), Limits()),
                  (jag, disjoint_union(g, g), Limits())]
    rng = random.Random(17)
    for _ in range(600):
        g = random_graph(rng)
        cases.append((random_jag(rng, g.degree), g, Limits(max_configs=2000)))
    walked = [_decider_answers(*case) for case in cases]
    monkeypatch.setattr(machine, "_accept_values", _worklist_only)
    assert [_decider_answers(*case) for case in cases] == walked
    merges = [answers[-1] for answers in walked if answers]
    assert all(walked[:8]) and merges.count(False) >= 50 \
        and merges.count(True) >= 100


_WALK_LOOP = """
pebble curr
guess b : bool
while b {
    move curr along 1
    guess b : bool
}
accept
"""


def test_deciders_step_only_through_the_table(monkeypatch):
    """After a complete build, the deciders on its graph ask the automaton
    nothing: the value pass steps configurations again through the space's
    table, so ``delta`` is not called and no state is added.  On random
    automata whose graphs reach the worklist, and on a program's own space
    (curr walks a 3-cycle round and round, so its graph cycles; t sits on a
    fourth node that curr never meets, so the co-st pass reads every
    edge)."""
    carried = []  # one entry per worklist run
    worklist = machine._carried_values

    def counting(cg, *args):
        carried.append(cg)
        yield from worklist(cg, *args)

    monkeypatch.setattr(machine, "_carried_values", counting)
    calls = []

    def decide_after_build(jag, g):
        cg = build_config_graph(jag, g, Limits(max_configs=2000))
        if cg.limit_hit:
            return False
        states = len(cg.space.states)
        calls.clear()
        carried.clear()
        accepts(jag, g, config_graph=cg)
        check_traversable(jag, g, config_graph=cg)
        check_orderable(jag, g, config_graph=cg)
        if cg.accepting:
            decide_co_st_connectivity(jag, g, config_graph=cg)
        assert calls == [] and len(cg.space.states) == states
        return bool(carried)

    rng = random.Random(29)
    reached = 0
    for _ in range(2000):
        g = random_graph(rng)
        jag = random_jag(rng, g.degree)
        if jag.curr is None:
            continue

        def delta(state, pi, rules=jag.rules):
            calls.append((state, pi))
            return rules.get((state, pi), ())

        reached += decide_after_build(_wrapper(jag, delta), g)
    assert reached >= 100
    cycle = LabelledGraph(4, 1, ((1,), (2,), (0,), (3,)), 0, 3)
    prog = parse_program(_WALK_LOOP)
    assert isinstance(prog.space(cycle), ProgramSpace)
    assert decide_after_build(prog, cycle)


def _above(parent, config, below):
    """Whether ``config`` lies on the tree path from the initial
    configuration to ``below``: a merge from ``below`` into it closes a
    cycle."""
    while below is not None:
        if below == config:
            return True
        below = parent[below]
    return False


def test_adj_is_derived_from_the_expanded_configurations(grid_cayleys):
    g = grid_cayleys[(2, 3)].graph
    jag = compile_program(grid_traversal_program(), g.degree)
    succs = successors(jag, g)
    full = build_config_graph(jag, g)
    full_parent = decoded(full)[0]
    assert list(full.adj) == list(full_parent)
    assert all(full.adj[c] == succs(c) for c in full_parent)
    # a budget stops the build before it expands the last level it found
    for limits in (Limits(max_configs=40), Limits(max_run_len=6)):
        cut = build_config_graph(jag, g, limits)
        assert cut.limit_hit
        cut_parent = decoded(cut)[0]
        depth = {}
        for config, above in cut_parent.items():
            depth[config] = 0 if above is None else depth[above] + 1
        last = max(depth.values())
        assert list(cut.adj) == [c for c in cut_parent if depth[c] < last]
        assert list(cut.adj) == list(full_parent)[:len(cut.adj)]
    # on random automata, whose builds merge and cycle, each list is the
    # multiset of the configuration's successors, complete or cut
    rng = random.Random(5)
    seen = Counter()
    for _ in range(300):
        g = random_graph(rng)
        jag = random_jag(rng, g.degree)
        succs = successors(jag, g)
        for limits in (Limits(max_configs=2000), Limits(max_configs=6),
                       Limits(max_run_len=3)):
            cg = build_config_graph(jag, g, limits)
            expanded = list(_plain_bfs(jag, g, limits)[4])
            assert list(cg.adj) == expanded
            assert all(Counter(cg.adj[c]) == Counter(succs(c))
                       for c in expanded)
            parent, merges, _ = decoded(cg)
            seen["merges"] += bool(merges)
            seen["cycles"] += any(_above(parent, s, c) for c, s in merges)
            seen[cg.limit_hit] += 1
            seen["cut merges"] += bool(cg.limit_hit and merges)
    assert min(seen.values()) >= 30


def _plain_bfs(jag, g, limits):
    """The configuration graph by a breadth-first search over
    ``Configuration``s, stepped by the oracle's ``apply_moves``, under
    ``expand``'s budget rules: ``(parent, merges, accepting, limit_hit,
    adj)``, with ``adj`` keyed by the configurations expanded."""
    init = initial_config(jag, g)
    parent, merges, accepting, adj = {init: None}, [], [], {}
    frontier, depth = [init], 0
    while frontier:
        if len(parent) > limits.max_configs:
            return parent, merges, accepting, "max_configs", adj
        if limits.max_run_len is not None and depth > limits.max_run_len:
            return parent, merges, accepting, "max_run_len", adj
        nxt = []
        for config in frontier:
            adj[config] = oracle_successors(jag, g, config)
            if config.state == jag.accept_state:
                accepting.append(config)
            for s in adj[config]:
                if s in parent:
                    merges.append((config, s))
                else:
                    parent[s] = config
                    nxt.append(s)
        frontier, depth = nxt, depth + 1
    return parent, merges, accepting, None, adj


def _padded(g, extra):
    """``g`` with ``extra`` more nodes, each a self-loop no walk reaches."""
    loops = tuple((v,) * g.degree for v in range(g.num_nodes,
                                                 g.num_nodes + extra))
    return dataclasses.replace(g, num_nodes=g.num_nodes + extra,
                               rho=g.rho + loops)


def test_run_is_the_build_stopped_at_its_first_accept():
    """``run`` on rule tables, under no budget and under budgets that stop
    the search: its verdict is ``accepts``'s on the build under the same
    limits and its visit order ``accepting_run_visits``'s, and it discovers
    no more configurations than the build, as many when nothing accepts.
    The graphs merge, cycle and step out of accept configurations."""
    rng = random.Random(17)
    seen = Counter()
    for _ in range(300):
        g = random_graph(rng)
        jag = random_jag(rng, g.degree)
        for limits in (Limits(), Limits(max_configs=6), Limits(max_run_len=3)):
            cg = build_config_graph(jag, g, limits)
            res = run(jag.space(g), limits)
            assert res.verdict is accepts(jag, g, config_graph=cg)
            assert res.visit_order == accepting_run_visits(cg)
            assert res.configs_explored <= cg.configs_explored
            if not cg.accepting:
                assert res.configs_explored == cg.configs_explored
            seen[res.verdict] += 1
            seen["merges"] += bool(cg.merges)
            seen["cycles"] += any(_above(cg.parent, s, c)
                                  for c, s in cg.merges)
            seen["out of accept"] += any(cg.space.step(c)
                                         for c in cg.accepting)
            seen["with an order"] += res.visit_order is not None
            seen["stopped early"] += \
                res.configs_explored < cg.configs_explored
    assert min(seen.values()) >= 20


def test_a_bad_move_out_of_the_accept_state_raises_in_every_search():
    # the pebble steps into the accept state, whose move uses label 5 on a
    # degree-1 graph.  A search steps a configuration before it tests for
    # acceptance, so run raises as the build does, though it stops there.
    g = LabelledGraph(3, 1, ((1,), (2,), (0,)), 0, 0)
    jag = NdJag("q0", "acc", 1, s=1, t=1, curr=1, delta={
        ("q0", (1,)): (("acc", (1,)),), ("acc", (1,)): (("q0", (5,)),)})
    for search in (lambda: run(jag.space(g)), lambda: accepts(jag, g),
                   lambda: build_config_graph(jag, g), lambda: verify(jag, g)):
        with pytest.raises(InputError,
                           match="^move label 5 exceeds degree 1$"):
            search()


def test_accepting_run_visits_without_curr_is_none():
    # two pebbles on a 3-cycle step once and accept; none is curr
    g = LabelledGraph(3, 1, ((1,), (2,), (0,)), 0, 1)
    jag = NdJag("q0", "acc", 2, s=1, t=2,
                delta={("q0", (1, 2)): (("acc", (1, 1)),)})
    cg = build_config_graph(jag, g)
    assert len(cg.accepting) == 1 and accepting_run_visits(cg) is None
    assert run(jag.space(g)) == RunResult(Verdict.ACCEPT, None, 2)


def _seven_pebbles(jag):
    """``jag`` with pebbles added up to seven.  The seventh is t: it starts
    on the targetnode and walks label 1 at every step, and the others added
    jump to it.  The rules read the partition of ``jag``'s own pebbles, a
    prefix of the whole canonical vector."""
    p = jag.num_pebbles
    extra = (-7,) * (6 - p) + (1,)

    def delta(state, pi):
        return tuple([(nxt, moves + extra)
                      for nxt, moves in jag.transitions(state, pi[:p])])

    return NdJag(jag.start_state, jag.accept_state, 7, s=jag.s, t=7,
                 curr=jag.curr, delta=delta)


def test_packed_build_matches_a_plain_bfs():
    """The build steps and stores packed ints; decoded, its ``parent`` (in
    order), ``merges``, ``accepting``, ``limit_hit`` and ``adj`` are those
    of a plain breadth-first search over ``Configuration``s.  On random
    automata and graphs, with and without budgets, and on the packing's
    edge cases: a one-node graph, where N is 1 and a configuration is its
    sid; a start state that is the accept state; and disjoint unions
    whose placement codes exceed 2**30 and 2**60."""
    rng = random.Random(41)
    seen = Counter()
    for k in range(300):
        g = random_graph(rng)
        jag = random_jag(rng, g.degree)
        case = ("random", "one node", "start accepts", "codes > 2**30",
                "codes > 2**60")[k % 5]
        if case == "one node":
            g = LabelledGraph(1, g.degree, ((0,) * g.degree,), 0, 0)
        elif case == "start accepts":
            jag = NdJag(jag.accept_state, jag.accept_state, jag.num_pebbles,
                        s=jag.s, t=jag.t, curr=jag.curr, delta=jag.rules)
        elif case.startswith("codes"):
            # at least 1 612 nodes, 11 bits a pebble.  t starts on the
            # second copy's targetnode, past node 806: a third pebble that
            # jumps to it has a code past 2**30, and the seventh pebble's
            # field lies at bit 66
            g = _padded(g, 800)
            g = disjoint_union(g, g)
            if case == "codes > 2**60":
                jag = _seven_pebbles(jag)
        for limits in (Limits(), Limits(max_configs=6), Limits(max_run_len=3)):
            cg = build_config_graph(jag, g, limits)
            parent, merges, accepting, limit_hit, adj = _plain_bfs(jag, g,
                                                                   limits)
            got_parent, got_merges, got_accepting = decoded(cg)
            assert list(got_parent.items()) == list(parent.items())
            assert got_merges == merges
            assert got_accepting == accepting
            assert cg.limit_hit == limit_hit
            assert cg.initial == initial_config(jag, g)
            assert list(cg.adj) == list(adj)
            assert all(Counter(cg.adj[c]) == Counter(adj[c]) for c in adj)
            space = cg.space
            assert [space.encode(c) for c in got_parent] == \
                list(cg.parent)
            assert all((c < space.N) == (config.state == jag.accept_state)
                       for c, config in zip(cg.parent, got_parent))
            seen[case] += 1
            seen["N == 1"] += space.N == 1
            seen["accept first"] += space.initial < space.N
            code = max(c % space.N for c in cg.parent)
            seen["past 2**30"] += 2 ** 30 < code <= 2 ** 60
            seen["past 2**60"] += code > 2 ** 60
            seen[limit_hit] += 1
            seen["merges"] += bool(merges)
    assert seen["N == 1"] == seen["one node"] == 180
    assert seen["accept first"] >= seen["start accepts"]
    assert seen["past 2**30"] >= 30
    assert seen["past 2**60"] == seen["codes > 2**60"] == 180
    assert min(seen[hit] for hit in (None, "max_configs", "max_run_len",
                                     "merges")) >= 30


# nine pebbles, curr the seventh: it takes one step either way from the
# startnode, so co-st is "disconnected" unless the targetnode is next to it
_ONE_STEP = """
pebble a
pebble b
pebble c
pebble u
pebble w
pebble z at target
pebble curr
dir x : 1..d
guess x
move curr along x
accept
"""


@pytest.mark.parametrize("n", [1, 2, 64, 65, 300])
def test_layout_fields_read_what_decode_gives(n):
    """Both spaces lay a configuration out by ``machine._layout``, ``b = (n
    - 1).bit_length()`` bits a pebble.  On one node ``b`` is 0 and N is 1,
    so the int is the sid; 64 nodes fill 6 bits and 65 = 2**6 + 1 is the
    first count to need 7.  With the nine pebbles of ``MANY_PEBBLES`` and
    ``_ONE_STEP`` on a cycle whose targetnode is 0, n // 2 or n - 1, the
    codes pass 2**30 on 64 nodes and 2**60 on 65 and 300.  In the
    program's space and in its compiled automaton's, every configuration
    decodes to a placement on the graph that the layout packs back into its
    int, ``encode`` and ``decode`` are inverse where the space has both,
    and the curr node that ``first_visits``, co-st and traversability read
    off an int is the one ``decode`` gives.  Every configuration: the
    program's space also has fresh ones, which ``cg.parent`` leaves out
    and ``first_visits`` steps back over with ``space.back``."""
    progs = [parse_program(MANY_PEBBLES), parse_program(_ONE_STEP)]
    b, p = (n - 1).bit_length(), 9
    code = 0  # the largest placement code seen
    fresh = 0  # configurations that first_visits steps back over
    answers = Counter()  # co-st answers and traversability flags
    for target, prog in itertools.product(sorted({0, n // 2, n - 1}), progs):
        g = cycle(n, target)
        need = reachable_set(g, g.startnode)
        for x in (prog, compile_program(prog, g.degree)):
            cg = build_config_graph(x, g)
            space, decode = cg.space, cg.space.decode
            assert cg.limit_hit is None and cg.accepting
            assert (space.N, space.mask, space.shifts) == \
                (2 ** (b * p), 2 ** b - 1, tuple(b * i for i in range(p)))
            curr = space.curr - 1
            sids = {state: sid for sid, state in enumerate(space.states)}
            visits = {}
            tree = search_tree(cg)  # the fresh configurations included
            fresh += cg.fresh
            for c, above in tree.items():
                config = decode(c)
                assert all(0 <= v < n for v in config.nodes)
                assert c == sids[config.state] << b * p | sum(
                    v << b * i for i, v in enumerate(config.nodes))
                if isinstance(space, machine.PackedSpace):
                    assert space.encode(config) == c
                    assert decode(space.encode(config)) == config
                node = config.nodes[curr]
                before = () if above is None else visits[above]
                visits[c] = before if node in before else before + (node,)
                assert first_visits(cg.parent, c, space) == visits[c]
                code = max(code, c % space.N)

            def node(c):
                return decode(c).nodes[curr]

            touched = machine._accept_values(
                cg, node(space.initial) == target,
                lambda t, c: t or node(c) == target, operator.or_)
            co_st = decide_co_st_connectivity(x, g, config_graph=cg)
            assert co_st == ("connected" if any(touched) else "disconnected")
            held = machine._accept_values(
                cg, {node(space.initial)}, lambda seen, c: seen | {node(c)},
                operator.and_)
            traversable = check_traversable(x, g, config_graph=cg)[0]
            assert traversable == all(need <= seen for seen in held)
            answers[co_st] += 1
            answers[traversable] += 1
    assert code > {1: -1, 2: 0, 64: 2 ** 30, 65: 2 ** 60, 300: 2 ** 60}[n]
    assert fresh > 0
    # one step from node 0 reaches every node but n // 2 when n > 3
    assert ("disconnected" in answers) == (n > 3)
    assert (True in answers) == (n <= 2)


def test_complete_graph_needs_no_further_budget():
    """On a complete configuration graph no decider runs out of budget: a
    configuration budget equal to the graph's size gives the same report as
    no budget."""
    rng = random.Random(3)
    checked = 0
    for _ in range(1000):
        g = random_graph(rng)
        jag = random_jag(rng, g.degree)
        if jag.curr is None:
            continue
        cg = build_config_graph(jag, g, Limits(max_configs=2000))
        if cg.limit_hit:
            continue
        tight = Limits(max_configs=cg.configs_explored)
        assert verify(jag, g, tight) == verify(jag, g)
        cg = build_config_graph(jag, g, tight)
        assert not cg.limit_hit
        check_traversable(jag, g, tight, config_graph=cg)
        check_orderable(jag, g, tight, config_graph=cg)
        if decoded(cg)[2]:
            decide_co_st_connectivity(jag, g, tight, config_graph=cg)
        checked += 1
    assert checked >= 300


def test_deciders_reject_a_config_graph_of_another_input(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph
    prog = grid_traversal_program()
    jag = compile_program(prog, 2)
    other = compile_program(prog, 2)
    # a program and its compiled automaton search spaces of their own
    for given, cg in ((jag, build_config_graph(jag, disjoint_union(g, g))),
                      (jag, build_config_graph(other, g)),
                      (prog, build_config_graph(jag, g)),
                      (jag, build_config_graph(prog, g))):
        for decide in (accepts, check_traversable, check_orderable,
                       decide_co_st_connectivity):
            with pytest.raises(InputError, match="another automaton or graph"):
                decide(given, g, config_graph=cg)
    # the graph of an automaton that accepts, given with one that has no
    # transitions
    dead = _wrapper(jag, {})
    with pytest.raises(InputError, match="another automaton or graph"):
        accepts(dead, g, config_graph=build_config_graph(jag, g))


def test_co_st_diagnostic_on_rejecting_automaton(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph
    dead = NdJag("q0", "qa", 3, curr=3, delta={})
    with pytest.raises(DiagnosticError):
        decide_co_st_connectivity(dead, g)


def test_verify_report_fields(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph
    jag = compile_program(grid_traversal_program(), 2)
    report = verify(jag, g)
    assert report.verdict is Verdict.ACCEPT
    assert report.traversable and report.orderable
    assert set(report.visit_order) >= reachable_set(g, g.startnode)
    text = report.to_text()
    for key in ("verdict:", "traversable:", "orderable:", "visit_order:",
                "configs_explored:", "limits_hit:"):
        assert key in text


def test_verify_names_the_limit_hit():
    jag, g = sym4_tower()
    report = verify(jag, g, Limits(max_run_len=5))
    assert report.verdict is Verdict.RESOURCE_LIMIT
    assert report.limits_hit == ("max_run_len",)
    assert 0 < report.configs_explored < 1000
    assert "limits_hit: max_run_len" in report.to_text()


def test_verify_visit_order_unique():
    # two accepting traces with different curr sequences: order None-safe
    g = LabelledGraph(2, 1, ((0,), (1,)), 0, 1)
    jag = compile_program(two_tour_guesser_program(), 1)
    report = verify(jag, g)
    assert report.traversable and not report.orderable


def test_interchange_roundtrip():
    rng = random.Random(4)
    for _ in range(10):
        jag = random_jag(rng, degree=2)
        text = serialize_jag(jag)
        back = parse_jag(text)
        assert back.rules == jag.rules
        assert back.start_state == jag.start_state
        assert back.accept_state == jag.accept_state
        assert (back.s, back.t, back.curr) == (jag.s, jag.t, jag.curr)
        assert serialize_jag(back) == text
    # a compiled automaton's delta is a function, not a rule table
    compiled = compile_program(parse_program("pebble curr\naccept\n"), 2)
    with pytest.raises(InputError, match="only rule-table automata"):
        serialize_jag(compiled)


def test_parse_jag_rejects_bad_rows():
    head = "states a b\nstart a\naccept b\npebbles 2\n"
    bad = [
        (head + "a 1,1 -> b x1\n", 5),
        ("states a b\nstart a\naccept b\npebbles x\n", 4),
        (head + "designate curr=z\n", 5),
        (head + "a 1,1 -> b mx m1\n", 5),
        (head + "a x,1 -> b m1 m1\n", 5),
        ("states a b\nstart\naccept b\npebbles 2\n", 2),
        # not canonical partition vectors of 2 pebbles: such a rule never fires
        (head + "a 1,1 -> b m1 m1\na 2,1 -> b m1 m1\n", 6),
        (head + "a 1,1,1 -> b m1 m1\n", 5),
        (head + "a 1,1 -> b m1 m1\na 1,1 -> b m0 m1\n", 6),
        (head + "a 1,1 -> b m1\n", 5),
        # each header line and designation is given at most once
        (head + "start b\n", 5),
        (head + "accept a\n", 5),
        (head + "pebbles 2\n", 5),
        (head + "states a b c\n", 5),
        (head + "designate s=1 s=2\n", 5),
        (head + "designate curr=1\ndesignate t=1 curr=2\n", 6),
    ]
    for text, line in bad:
        with pytest.raises(InputError, match=f"^line {line}: "):
            parse_jag(text)


def test_bad_designations_rejected():
    with pytest.raises(InputError):
        NdJag("q0", "qa", 2, s=3, delta={})
    with pytest.raises(InputError):
        NdJag("q0", "qa", 2, curr=5, delta={})


def test_move_vector_length_validated():
    with pytest.raises(InputError):
        NdJag("q0", "qa", 2, delta={("q0", (1, 2)): (("qa", (1,)),)})


def test_max_run_len_bounds_depth(grid_cayleys):
    g = grid_cayleys[(2, 2)].graph
    jag = compile_program(grid_traversal_program(), 2)
    short = build_config_graph(jag, g, Limits(max_run_len=3))
    assert short.limit_hit
    assert accepts(jag, g, config_graph=short) is Verdict.RESOURCE_LIMIT
    long = build_config_graph(jag, g, Limits(max_run_len=10_000))
    assert accepts(jag, g, config_graph=long) is Verdict.ACCEPT


def test_single_node_component_trivially_orderable():
    g = LabelledGraph(1, 2, ((0, 0),), 0, 0)
    jag = compile_program(grid_traversal_program(), 2)
    trav, _ = check_traversable(jag, g)
    ordb, order = check_orderable(jag, g)
    assert trav and ordb and order == (0,)


def test_curr_deciders_name_the_budget_that_ran_out(grid_cayleys):
    # the deciders need the complete configuration graph; a budget that
    # stops the build short raises instead of deciding on part of it
    g = grid_cayleys[(2, 2)].graph
    jag = compile_program(grid_traversal_program(), 2)
    deciders = (check_traversable, check_orderable, decide_co_st_connectivity)
    for limits, name in ((Limits(max_configs=50), "max_configs"),
                         (Limits(max_run_len=3), "max_run_len")):
        for decide in deciders:
            with pytest.raises(ResourceLimitExceeded,
                               match=f"^{name} budget exhausted$"):
                decide(jag, g, limits)
