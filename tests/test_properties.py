"""Property tests: the curr deciders against the run-tree oracle.

Small automata on small graphs are drawn with hypothesis, including the
cases ``spotcheck.random_jag`` never produces: one pebble, curr equal to s
or t, an accept state equal to the start state, a startnode other than 0,
an accept state with no rules, and a callable ``delta``.  ``verify``,
``check_traversable``, ``check_orderable`` and
``decide_co_st_connectivity`` are compared with ``enumerate_runs`` and
``replay_curr_visits``, which share nothing with the configuration graph,
and every step of the build with the oracle's ``apply_moves``.

Runs of length at most n * configs_explored show every first-visit
sequence of curr: between two first visits a run can drop any loop, and
configs_explored is at least the number of configurations reachable before
acceptance.  Instances whose run tree cannot be exhausted are discarded.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jaglab.errors import DiagnosticError, ResourceLimitExceeded
from jaglab.graph import LabelledGraph, reachable_set
from jaglab.machine import (NdJag, Verdict, all_partitions, build_config_graph,
                            check_orderable, check_traversable,
                            decide_co_st_connectivity, enumerate_runs,
                            replay_curr_visits, verify)

from conftest import assert_steps_match_oracle

TREE_NODES = 2000


@st.composite
def instances(draw):
    n = draw(st.sampled_from((4, 3, 2, 1)))
    d = draw(st.integers(1, 2))
    node = st.integers(0, n - 1)
    rho = tuple(tuple(draw(node) for _ in range(d)) for _ in range(n))
    g = LabelledGraph(n, d, rho, draw(node), draw(node))
    p = draw(st.integers(1, 3))
    pebble = st.integers(1, p)
    states = tuple(f"q{i}" for i in range(draw(st.integers(2, 3))))
    accept = draw(st.sampled_from(states[::-1]))  # q0 too: accept = start
    move = st.one_of(st.integers(1, d), st.integers(-p, -1))
    rule = st.tuples(st.sampled_from(states), st.tuples(*[move] * p))
    dead_accept = draw(st.booleans())
    rules = {}
    for state in states:
        if state == accept and dead_accept:
            continue
        for pi in all_partitions(p):
            outs = draw(st.lists(rule, max_size=2))
            if outs:
                rules[(state, pi)] = tuple(outs)
    if draw(st.booleans()):
        delta = rules
    else:
        def delta(state, pi):
            return rules.get((state, pi), ())
    jag = NdJag(states[0], accept, p, s=draw(pebble), t=draw(pebble),
                curr=draw(pebble), delta=delta)
    return jag, g


# one pebble on a 3-cycle, label 1 forward and 2 back
CYCLE = LabelledGraph(3, 2, ((1, 2), (2, 0), (0, 1)), 0, 0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(instances())
# two tours, 0 1 2 and 0 2 1: traversable, not orderable
@example((NdJag("q0", "acc", 1, s=1, t=1, curr=1, delta={
    ("q0", (1,)): (("q1", (1,)), ("q2", (2,))),
    ("q1", (1,)): (("acc", (1,)),),
    ("q2", (1,)): (("acc", (2,)),)}), CYCLE))
# runs 0 1 0 and 0 0 merge at (q1, 0) with prefixes (0, 1) and (0,) of the
# one order 0 1 2: orderable
@example((NdJag("q0", "acc", 1, s=1, t=1, curr=1, delta={
    ("q0", (1,)): (("qa", (1,)), ("q1", (-1,))),
    ("qa", (1,)): (("q1", (2,)),),
    ("q1", (1,)): (("q2", (1,)),),
    ("q2", (1,)): (("acc", (1,)),)}), CYCLE))
def test_curr_deciders_agree_with_run_enumeration(case):
    jag, g = case
    cg = build_config_graph(jag, g)
    assert_steps_match_oracle(jag, g, cg)
    try:
        runs = enumerate_runs(jag, g, max_len=g.num_nodes * cg.configs_explored,
                              max_tree_nodes=TREE_NODES)
    except ResourceLimitExceeded:
        assume(False)
    orders = {replay_curr_visits(jag, g, trace) for trace in runs}
    reach = reachable_set(g, g.startnode)
    traversable = bool(orders) and all(reach <= set(o) for o in orders)
    shared = len(orders) == 1

    report = verify(jag, g)
    assert report.verdict is (Verdict.ACCEPT if orders else Verdict.REJECT)
    assert report.traversable == traversable
    assert report.orderable == (traversable and shared)
    assert report.visit_order is None if not orders \
        else report.visit_order in orders
    assert (report.configs_explored, report.limits_hit) == \
        (cg.configs_explored, ())
    assert check_traversable(jag, g, config_graph=cg) == \
        (traversable, report.visit_order)
    assert check_orderable(jag, g, config_graph=cg) == \
        (shared, report.visit_order)
    if orders:
        touched = any(g.targetnode in o for o in orders)
        assert decide_co_st_connectivity(jag, g, config_graph=cg) == \
            ("connected" if touched else "disconnected")
    else:
        with pytest.raises(DiagnosticError):
            decide_co_st_connectivity(jag, g, config_graph=cg)
