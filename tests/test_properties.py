"""Property tests: the deciders against the run-tree oracle.

Small automata on small graphs are drawn with hypothesis, including the
cases ``spotcheck.random_jag`` never produces: one pebble, curr equal to s
or t, an accept state equal to the start state, a startnode other than 0,
an accept state with no rules, and a callable ``delta``.  Every decider is
compared with ``spotcheck.expected``, every build step with the oracle's
``apply_moves``, and a rule table with its interchange-format round trip.
"""

from hypothesis import assume, example, given, settings, strategies as st

from jaglab.graph import LabelledGraph
from jaglab.machine import (NdJag, all_partitions, build_config_graph,
                            parse_jag, serialize_jag, verify)
from jaglab.spotcheck import disagreement, expected

from conftest import assert_steps_match_oracle

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
    report = verify(jag, g)
    assert (report.configs_explored, report.limits_hit) == \
        (cg.configs_explored, ())
    if jag.rules is not None:  # the interchange format keeps the automaton
        back = parse_jag(serialize_jag(jag))
        assert (back.rules, back.start_state, back.accept_state) == \
            (jag.rules, jag.start_state, jag.accept_state)
        assert (back.s, back.t, back.curr) == (jag.s, jag.t, jag.curr)
        assert verify(back, g) == report
    exp = expected(jag, g, 2000)
    assume(exp is not None)
    assert disagreement(jag, g, cg, exp) is None
