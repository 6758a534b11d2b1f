from collections import Counter

import pytest

from jaglab.errors import (DiagnosticError, InputError, ProgramError,
                           ResourceLimitExceeded)
from jaglab.families import parse_family
from jaglab.graph import LabelledGraph
from jaglab.lang import (_ACTIONS, BoundProgram, compile_program, interpret,
                         parse_program)
from jaglab.machine import (Limits, Verdict, accepts, all_partitions,
                            build_config_graph, check_orderable,
                            check_traversable, decide_co_st_connectivity,
                            enumerate_runs, expand, partition_of, run,
                            verify)
from jaglab.algorithms import grid_traversal_program, tower_program

from conftest import (MANY_PEBBLES, cycle, decoded, permutation_graph,
                      plain_bfs, random_program)


def reachable_states(jag):
    """All automaton states reachable through any partition choice."""
    seen = {jag.start_state}
    frontier = [jag.start_state]
    partitions = list(all_partitions(jag.num_pebbles))
    while frontier:
        state = frontier.pop()
        for pi in partitions:
            for nxt, _ in jag.transitions(state, pi):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def test_grid_program_parses():
    prog = grid_traversal_program(3)
    names = [n for n, _ in prog.pebbles]
    assert names[:2] == ["s", "curr"]
    assert dict(prog.dirs)["k"] == ("1..d",)


def test_move_label_exceeds_degree_is_static_error():
    prog = parse_program("pebble curr\nmove curr along 5\naccept")
    with pytest.raises(ProgramError):
        prog.bind(2)
    prog.bind(5)  # fine in a degree-5 context


def test_bind_is_kept_per_degree():
    """Every search of one program at one degree shares one
    ``BoundProgram`` and its caches; a degree whose binding raises raises
    again on every call, and a program equals one parsed from its source
    whatever each has bound."""
    prog = parse_program("pebble curr\nmove curr along 3\naccept")
    assert prog.bind(3) is prog.bind(3)
    assert prog.bind(4) is not prog.bind(3)
    assert prog.bind(3) == parse_program(prog.source).bind(3)
    for _ in range(2):
        with pytest.raises(ProgramError):
            prog.bind(2)
        with pytest.raises(InputError):
            prog.bind(0)
    assert prog == parse_program(prog.source)
    assert hash(prog) == hash(parse_program(prog.source))


def test_only_a_program_space_makes_the_state_graph():
    """Binding and ``compile_program`` leave the state graph unmade, so
    the compiled route costs what it did; the first ``ProgramSpace`` at a
    degree makes it, and every later space at that degree reads the same
    one."""
    family = parse_family("sym:n=3")
    prog, g = tower_program(family.tower), family.graph
    bp = prog.bind(g.degree)
    verify(compile_program(prog, g.degree), g)
    assert not bp._graph and not bp._sole
    prog.space(g)
    graph, sole = bp.state_graph()
    assert graph and sole
    prog.space(g)
    assert bp.state_graph()[0] is graph and prog.bind(g.degree) is bp


def test_explicit_domain_must_be_degree_closed_when_moved():
    prog = parse_program(
        "pebble p\ndir x : {1,3}\nguess x\nmove p along x\naccept")
    with pytest.raises(ProgramError) as exc:
        prog.bind(2)
    assert exc.value.line == 4
    prog.bind(3)


def test_counter_domains_need_not_be_degree_closed():
    prog = parse_program(
        "pebble p\ndir c : {1..7}\nfor c = 1 to 7 {\nmove p along 1\n}\naccept")
    prog.bind(1)


def test_undeclared_identifiers_rejected():
    with pytest.raises(ProgramError):
        parse_program("move nope along 1")
    with pytest.raises(ProgramError):
        parse_program("pebble p\nguess ghost")
    with pytest.raises(ProgramError):
        parse_program("pebble p\nif b {\nfail\n}\naccept")


def test_reserved_and_duplicate_names_rejected():
    with pytest.raises(ProgramError):
        parse_program("pebble d")
    with pytest.raises(ProgramError):
        parse_program("pebble p\npebble p")
    with pytest.raises(ProgramError):
        parse_program("dir s : 1..d")


def test_declarations_must_precede_statements():
    with pytest.raises(ProgramError):
        parse_program("accept\npebble p")


def test_empty_program_with_accept(grid_cayleys):
    prog = parse_program("accept")
    assert interpret(prog, grid_cayleys[(2, 2)].graph).verdict is Verdict.ACCEPT


def test_fail_rejects(grid_cayleys):
    prog = parse_program("fail")
    assert interpret(prog, grid_cayleys[(2, 2)].graph).verdict is Verdict.REJECT


def test_falling_off_the_end_rejects(grid_cayleys):
    prog = parse_program("pebble p\nmove p along 1")
    assert interpret(prog, grid_cayleys[(2, 2)].graph).verdict is Verdict.REJECT


def test_angelic_guess(grid_cayleys):
    prog = parse_program("guess b : bool\nif b {\nfail\n}\naccept")
    assert interpret(prog, grid_cayleys[(2, 2)].graph).verdict is Verdict.ACCEPT


def test_assign_move_desugars(grid_cayleys):
    g = grid_cayleys[(1, 5)].graph
    a = parse_program("pebble p\np := s.1\naccept")
    b = parse_program("pebble p\njump p to s\nmove p along 1\naccept")
    ra, rb = interpret(a, g), interpret(b, g)
    assert ra.verdict is rb.verdict is Verdict.ACCEPT


def test_visit_marker_places_curr(grid_cayleys):
    g = grid_cayleys[(1, 5)].graph
    prog = parse_program(
        "pebble curr\npebble x\nmove x along 1\nvisit x\naccept")
    res = interpret(prog, g)
    assert res.visit_order == (0, 1)


def test_pebble_at_target_prologue():
    g = LabelledGraph(2, 1, ((1,), (0,)), 0, 1)
    prog = parse_program("pebble curr at target\naccept")
    res = interpret(prog, g)
    # machine semantics: curr starts on the startnode, then jumps to t
    assert res.visit_order == (0, 1)
    jag = compile_program(prog, 1)
    ok, order = check_orderable(jag, g)
    assert ok and order == (0, 1)


def test_interpret_grid_program(grid_cayleys):
    res = interpret(grid_traversal_program(2), grid_cayleys[(2, 3)].graph)
    assert res.verdict is Verdict.ACCEPT
    assert len(res.visit_order) == 9


def test_compile_state_bound_straight_line(grid_cayleys):
    prog = parse_program("pebble p\njump p to t\nmove p along 1\naccept")
    jag = compile_program(prog, 2)
    assert len(reachable_states(jag)) <= 4


def test_compile_state_bound_grid_program():
    prog = grid_traversal_program(2)
    jag = compile_program(prog, 2)
    bp = prog.bind(2)
    domain_product = 1
    for dom in bp.var_domains:
        domain_product *= len(dom)
    assert len(reachable_states(jag)) <= len(bp.instrs) * domain_product + 1


def test_deterministic_program_has_one_maximal_run(grid_cayleys):
    g = grid_cayleys[(1, 5)].graph
    prog = parse_program("pebble p\nmove p along 1\nmove p along 1\naccept")
    jag = compile_program(prog, 1)
    runs = enumerate_runs(jag, g, max_len=10)
    assert len(runs) == 1


def test_fail_prunes_exactly_the_guilty_runs(grid_cayleys):
    g = grid_cayleys[(1, 2)].graph
    # guesses fold into the next pebble action, so each resolution takes
    # the jump into its own state (the jump's point, its valuation)
    prog = parse_program(
        "pebble p\nguess a : bool\nguess b : bool\njump p to s\n"
        "if a {\nif b {\nfail\n}\n}\naccept")
    jag = compile_program(prog, 1)
    runs = enumerate_runs(jag, g, max_len=20)
    assert len(runs) == 3  # four guess resolutions, one pruned


def test_max_run_len_counts_pebble_actions(grid_cayleys):
    """A guess and a branch are no steps: ``accept`` is the only one."""
    g = grid_cayleys[(1, 2)].graph
    prog = parse_program("guess b : bool\nif b {\n}\naccept")
    jag = compile_program(prog, g.degree)
    for bound, want in ((0, Verdict.RESOURCE_LIMIT), (1, Verdict.ACCEPT)):
        limits = Limits(max_run_len=bound)
        assert interpret(prog, g, limits).verdict is want
        assert accepts(jag, g, limits) is want


def test_control_only_cycles_terminate(grid_cayleys):
    g = grid_cayleys[(1, 2)].graph
    spin = parse_program("while s == s {\n}\naccept")
    assert spin.bind(1).fold(0, (), (1, 1)) == []
    reguess = parse_program(
        "guess b : bool\nwhile b {\nguess b : bool\n}\naccept")
    assert reguess.bind(1).fold(0, (False,), (1, 1)) == [(4, (False,))]
    for prog, want, configs in ((spin, Verdict.REJECT, 1),
                                (reguess, Verdict.ACCEPT, 2)):
        res = interpret(prog, g)
        assert (res.verdict, res.configs_explored) == (want, configs)
        assert accepts(compile_program(prog, g.degree), g) is want


def test_steps_lists_each_pebble_action_once():
    """``steps`` gives one triple per distinct ``(next, pebble, move)``:
    ``accept`` reached under two guesses is one step, and so is a move
    whose next states agree once the dead guess is reset, while moves
    along two labels stay two steps.  Both routes encode this list, so a
    duplicate here would be a duplicate edge in both."""
    pi = (1, 1, 1)
    accept = parse_program("pebble p\nguess b : bool\naccept\n").bind(1)
    assert accept.steps(0, (False,), pi) == [(None, None, None)]
    move = parse_program(
        "pebble p\nguess b : bool\nmove p along 1\naccept\n").bind(1)
    assert move.steps(0, (False,), pi) == [((2, (False,)), 1, 1)]
    labels = parse_program(
        "pebble p\ndir x : 1..d\nguess x\nmove p along x\naccept\n").bind(2)
    assert labels.steps(0, (1,), pi) == [((2, (1,)), 1, 1), ((2, (1,)), 1, 2)]
    assert labels.steps(1, (2,), pi) == [((2, (1,)), 1, 2)]  # at the move


def test_run_and_verify_count_the_same_configurations():
    """Both report the configurations discovered when a budget runs out."""
    g = LabelledGraph(4, 2, ((2, 1), (3, 0), (0, 3), (1, 2)), 0, 3)
    prog = grid_traversal_program(g.degree)
    jag = compile_program(prog, g.degree)
    parents, _, accepting = decoded(build_config_graph(jag, g))
    depth = {}
    for config, parent in parents.items():  # parents come first
        depth[config] = 0 if parent is None else depth[parent] + 1
    half = depth[accepting[0]] // 2
    # one below the configurations of depth <= half: the search stops
    # before it expands level half
    budget = sum(d <= half for d in depth.values()) - 1
    for limits in (Limits(max_configs=budget), Limits(max_run_len=half)):
        res = interpret(prog, g, limits)
        report = verify(jag, g, limits)
        assert res.verdict is report.verdict is Verdict.RESOURCE_LIMIT
        assert res.configs_explored == report.configs_explored


def test_bisimulation_verdict_and_order(grid_cayleys):
    cases = [(grid_traversal_program(2), grid_cayleys[key].graph)
             for key in [(1, 2), (2, 2)]]
    for spec in ("grid:d=2,l=5", "sym:n=4",
                 "wreath(grid:d=1,l=2, grid:d=1,l=3)"):  # ladder rungs
        family = parse_family(spec)
        g = family.graph
        cases.append((grid_traversal_program(g.degree) if spec.startswith("grid")
                      else tower_program(family.tower), g))
    for prog, g in cases:
        res = interpret(prog, g)
        jag = compile_program(prog, g.degree)
        assert accepts(jag, g) is res.verdict
        cg = build_config_graph(jag, g)
        ok, order = check_orderable(jag, g, config_graph=cg)
        assert ok and order == res.visit_order


def test_condition_forms():
    prog = parse_program(
        "pebble p\npebble q\n"
        "if p == q {\naccept\n} else {\nfail\n}")
    g = LabelledGraph(1, 1, ((0,),), 0, 0)
    assert interpret(prog, g).verdict is Verdict.ACCEPT


def test_while_on_pebble_inequality(grid_cayleys):
    g = grid_cayleys[(1, 5)].graph
    prog = parse_program(
        "pebble p\nmove p along 1\nwhile p != s {\nmove p along 1\n}\naccept")
    assert interpret(prog, g).verdict is Verdict.ACCEPT


def test_for_loop_with_variable_bounds(grid_cayleys):
    g = grid_cayleys[(2, 3)].graph
    prog = parse_program(
        "pebble p\ndir k : 1..d\ndir dd : 1..d\nguess k\n"
        "for dd = 1 to k {\nmove p along dd\n}\naccept")
    assert interpret(prog, g).verdict is Verdict.ACCEPT


def test_for_loop_empty_range(grid_cayleys):
    g = grid_cayleys[(1, 2)].graph
    prog = parse_program(
        "pebble p\ndir c : {1..4}\nfor c = 3 to 2 {\nmove p along 1\n}\naccept")
    res = interpret(prog, g)
    assert res.verdict is Verdict.ACCEPT


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ProgramError) as exc:
        parse_program("pebble p\nmove p\naccept")
    assert exc.value.line == 2
    with pytest.raises(ProgramError):
        parse_program("pebble p\nwhile p == p {\nfail")  # missing brace
    for source, line, message in [
        ("pebble p\ndir x : {a}\naccept", 2, "'a' is not an integer"),
        ("pebble p\ndir x : {a..3}\naccept", 2, "'a' is not an integer"),
        ("pebble p\ndir x : {1, b}\naccept", 2, "'b' is not an integer"),
        ("pebble p\naccept p now", 2, "expected: accept"),
        ("pebble p\nfail now\naccept", 2, "expected: fail"),
        ("pebble p\n@ accept", 2, "cannot tokenize at '@ accept'"),
        # the message starts at the first character no token covers
        ("pebble p\nmove p @along 1", 2, "cannot tokenize at '@along 1'"),
        ("pebble p\naccept  @", 2, "cannot tokenize at '@'"),
        ("pebble p\nmove p\t%", 2, "cannot tokenize at '%'"),
        ("pebble p\ndir t : 1..d\naccept", 2, "'s' and 't' are pebble names"),
    ]:
        with pytest.raises(ProgramError, match=message) as exc:
            parse_program(source)
        assert exc.value.line == line, source


@pytest.mark.parametrize("source, line", [
    # a while block closed by an else
    ("pebble p\nwhile p == s {\nfail\n} else {\naccept\n}", 4),
    # a for block closed by an else
    ("pebble p\ndir c : {1..2}\nfor c = 1 to 2 {\nmove p along 1\n"
     "} else {\naccept\n}", 5),
    # a second else after an if ... else
    ("pebble p\nif p == s {\nfail\n} else {\nfail\n} else {\naccept\n}", 6),
    # nested in an if, the misplaced else once parsed without an error
    ("pebble p\nguess b : bool\nif b {\nwhile p == s {\nfail\n} else {\n"
     "accept\n}\naccept", 6),
], ids=["while", "for", "second-else", "nested-while"])
def test_only_an_if_block_closes_with_else(source, line):
    with pytest.raises(ProgramError, match="unexpected 'else'") as exc:
        parse_program(source)
    assert exc.value.line == line


_EVERY_FORM = """\
pebble curr
pebble a at target
pebble b at start
dir x : 1..d
dir y : {2,1}
dir c : {1..3}
guess x
guess f : bool
if a == s {
    move curr along x
} else {
    move curr along d
}
if f {
    fail
}
while a != t {
    a := t
}
for c = 1 to 2 {
    move b along 1
}
for c = x to y {
    guess y
}
jump b to curr
b := a.2
visit b
accept
"""


def test_lowering_of_every_statement_form():
    prog = parse_program(_EVERY_FORM)
    bp = prog.bind(2)
    assert bp.pebble_names == ("curr", "a", "b", "s", "t")
    assert (bp.s_idx, bp.t_idx, bp.curr_idx) == (4, 5, 1)
    assert bp.var_domains == ((1, 2), (1, 2), (1, 2, 3), (False, True))
    assert bp.init_vals == (1, 1, 1, False)
    assert bp.instrs == (
        ("jump", 2, 5),                                        # a at target
        ("guess", 0), ("guess", 3),
        ("ifeq", 2, 4, 4, 6),
        ("move", 1, ("var", 0)), ("goto", 7),
        ("move", 1, ("lit", 2)),                               # along d
        ("ifvar", 3, 8, 9), ("fail",),
        ("ifeq", 2, 5, 12, 10), ("jump", 2, 5), ("goto", 9),  # while a != t
        ("forstart", 2, ("lit", 1), ("lit", 2), 13, 15),
        ("move", 3, ("lit", 1)),
        ("fornext", 2, ("lit", 2), 13, 15),
        ("forstart", 2, ("var", 0), ("var", 1), 16, 18),
        ("guess", 1),
        ("fornext", 2, ("var", 1), 16, 18),
        ("jump", 3, 1),
        ("jump", 3, 2), ("move", 3, ("lit", 2)),               # b := a.2
        ("jump", 1, 3),                                        # visit b
        ("accept",), ("fail",))


def _live(bp, pt, names):
    """The variables live at ``pt``: those ``canon`` keeps off their
    domain's first value."""
    live = set()
    for i, dom in enumerate(bp.var_domains):
        vals = bp.init_vals[:i] + (dom[1],) + bp.init_vals[i + 1:]
        if bp.canon(pt, vals) == (pt, vals):
            live.add(names[i])
    return live


def test_liveness_of_every_statement_form():
    """A variable is live where some path reads it before assigning it;
    ``canon`` resets the others to their domain's first value."""
    bp = parse_program(_EVERY_FORM).bind(2)
    live = [_live(bp, pt, "xycf") for pt in range(len(bp.instrs))]
    assert live == [
        {"y"}, {"y"}, {"x", "y"},                     # jump, guess x, guess f
        *[{"f", "x", "y"}] * 5, set(),                # if a == s ... if f, fail
        *[{"x", "y"}] * 4,                            # while a != t, forstart
        {"c", "x", "y"}, {"c", "x", "y"},             # first loop: move, fornext
        {"x", "y"}, {"c"}, {"c", "y"},                # the second for loop
        *[set()] * 6]                                 # jumps, accept, fail
    # a guess kills its variable: x at 1, f at 2, y in the loop at 16
    assert "x" in live[2] and "x" not in live[1]
    assert "f" in live[3] and "f" not in live[2]
    assert "y" in live[17] and "y" not in live[16]
    # forstart kills its counter on the body edge: c is read at 14
    assert "c" in live[13] and "c" not in live[12]
    # fornext reads its counter and its bound, which nothing after reads
    assert live[17] == {"c", "y"} and live[18] == set()
    # ifvar reads its variable, which nothing after it reads
    assert "f" in live[7] and "f" not in live[8] | live[9]
    # dead variables go back to their domain's first value
    assert bp.canon(1, (2, 2, 3, True)) == (1, (1, 2, 1, False))
    # a move reads its label variable (3); forstart keeps its counter on
    # the exit edge (0), since the loop may run no round
    bp = parse_program(
        "pebble p\ndir c : {1..2}\nfor c = 2 to 1 {\n    move p along 1\n}\n"
        "move p along c\nguess c\nmove p along c\naccept").bind(2)
    assert bp.instrs[:6] == (
        ("forstart", 0, ("lit", 2), ("lit", 1), 1, 3),
        ("move", 1, ("lit", 1)), ("fornext", 0, ("lit", 1), 1, 3),
        ("move", 1, ("var", 0)), ("guess", 0), ("move", 1, ("var", 0)))
    assert [_live(bp, pt, "c") for pt in range(6)] == \
        [{"c"}, {"c"}, {"c"}, {"c"}, set(), {"c"}]


_FRESH = """
pebble p
dir x : 1..d
jump p to s
move p along 1
move p along d
move p along x
move p along 1
guess x
move p along 1
while p != s {
    move p along 1
    move p along 2
}
guess b : bool
if b {
    jump p to s
}
move p along 1
move p along 2
accept
"""


def _syntactic_fresh_points(bp):
    """The rule the state graph's freshness replaced, kept as a reference
    that the state rule must cover: a point ``q`` where ``q - 1`` is a
    ``move`` along a literal label, ``q - 2`` a ``move`` or ``jump``, and
    the fall-through of ``q - 2`` is the only control-flow edge into ``q -
    1``."""
    instrs = bp.instrs
    into = Counter(edge[0] for pt in range(len(instrs))
                   for edge in bp._edges(pt))
    return {q for q in range(2, len(instrs)) if into[q - 1] == 1
            and instrs[q - 1][0] == "move" and instrs[q - 1][2][0] == "lit"
            and instrs[q - 2][0] in ("move", "jump")}


def _state_graph_by_brute_force(bp):
    """``bp.state_graph()`` recomputed from its definition: every state
    reachable by ``steps`` under every partition, with the steps under each
    partition, and for each state other than the start the set of edges
    ``(state, pebble, move)`` into it."""
    partitions = list(all_partitions(bp.num_pebbles))
    start = (0, bp.init_vals)
    steps, into = {}, {start: {None}}  # None: the start enters it
    todo = [start]
    for state in todo:
        steps[state] = {pi: bp.steps(*state, pi) for pi in partitions}
        for triples in steps[state].values():
            for nxt, pebble, move in triples:
                if nxt is not None:
                    if nxt not in into:
                        into[nxt] = set()
                        todo.append(nxt)
                    into[nxt].add((state, pebble, move))
    return steps, into


def test_fresh_states_have_one_edge_into_them():
    """A state is fresh when one edge of the state graph enters it, a move
    along a label, and it is not the start state; a sid is fresh when its
    state is and that label's column is a permutation.  On ``_FRESH``: the
    states after a move along a variable (point 4) and after a move that a
    guess precedes (point 7, the loop test) are fresh too, which the
    syntactic rule missed; label 2 sends every node to node 0, so its
    states are fresh but not its sids; walking back from a fresh
    configuration reaches its parent in a search that stores everything.
    The state graph matches its definition recomputed over every
    partition, and its states are the compiled automaton's."""
    bp = parse_program(_FRESH).bind(2)
    graph, sole = bp.state_graph()
    assert {state[0]: (edge[0][0], edge[1], edge[2])
            for state, edge in sole.items()} == {
        2: (1, 1, 1), 3: (2, 1, 2), 4: (3, 1, 1), 5: (4, 1, 1),
        7: (5, 1, 1), 10: (9, 1, 2), 16: (15, 1, 2)}
    assert sorted(state[0] for state in graph) == \
        [0, 1, 2, 3, 4, 5, 7, 9, 10, 14, 15, 16]
    g = LabelledGraph(3, 2, tuple(((v + 1) % 3, 0) for v in range(3)), 0, 2)
    cg = build_config_graph(parse_program(_FRESH), g)
    space = cg.space
    assert cg.fresh > 0 and cg.limit_hit is None
    assert {space.states[sid][0] for sid, leap in enumerate(space.leaps)
            if leap is not None} == {2, 4, 5, 7}
    parent = plain_bfs(space)[0]
    fresh = [c for c in parent if c not in cg.parent]
    assert len(fresh) == cg.fresh
    assert all(space.back(c) == parent[c] for c in fresh)

    import random as _random
    rng = _random.Random(30)
    covered = wider = 0
    for _ in range(300):
        prog, g = random_program(rng), permutation_graph(rng)
        bp = prog.bind(g.degree)
        graph, sole = bp.state_graph()
        steps, into = _state_graph_by_brute_force(bp)
        assert set(graph) == \
            reachable_states(compile_program(prog, g.degree)) - {"qa"}
        assert set(graph) == set(steps)
        for state, by_pi in steps.items():
            pairs = bp.observed(state[0])
            for pi, triples in by_pi.items():
                bits = sum(1 << k for k, (i, j) in enumerate(pairs)
                           if pi[i] == pi[j])
                by = graph[state]
                assert triples == (by[bits] if len(by) > 1 else by[0])
            assert (len(graph[state]) == 1) == \
                (len({tuple(t) for t in by_pi.values()}) == 1)
        assert sole == {state: next(iter(edges))
                        for state, edges in into.items()
                        if len(edges) == 1 and None not in edges
                        and next(iter(edges))[2] > 0}
        # every sid the syntactic rule calls fresh is fresh
        space = build_config_graph(prog, g, Limits(max_configs=2000)).space
        old = _syntactic_fresh_points(bp)
        for sid, state in enumerate(space.states[1:], start=1):
            if state[0] in old:
                covered += 1
                assert space.leaps[sid] is not None, (prog.source, state)
            elif space.leaps and space.leaps[sid] is not None:
                wider += 1
    assert covered >= 100 and wider >= 300
    # on the ladder rungs, every state at a syntactically fresh point has
    # one edge into it (their graphs' label columns are all permutations)
    for spec in ("grid:d=2,l=5", "grid:d=3,l=3", "sym:n=4", "sym:n=5",
                 "abelian:mod=8,8", "wreath(grid:d=1,l=2, grid:d=1,l=3)"):
        family = parse_family(spec)
        prog = grid_traversal_program(family.graph.degree) \
            if spec.startswith("grid") else tower_program(family.tower)
        bp = prog.bind(family.graph.degree)
        graph, sole = bp.state_graph()
        old = _syntactic_fresh_points(bp)
        assert all(state in sole for state in graph if state[0] in old)
        assert len(sole) > sum(state[0] in old for state in graph)


def test_dead_variables_merge_the_tower_states():
    """The sym:n=4 tower program leaves stale digits, counters and branch
    flags behind: without the reset its build meets 3 069 states."""
    family = parse_family("sym:n=4")
    g = family.graph
    jag = compile_program(tower_program(family.tower), g.degree)
    parent, _, _ = decoded(build_config_graph(jag, g))
    assert len({config.state for config in parent}) == 368


def test_random_program_bisimulation():
    import random as _random
    from jaglab.spotcheck import random_graph
    from jaglab.machine import Limits, accepting_run_visits
    rng = _random.Random(77)
    checked = 0
    while checked < 40:
        g = random_graph(rng, max_nodes=5, max_degree=2)
        prog = random_program(rng)
        limits = Limits(max_configs=60_000)
        res = interpret(prog, g, limits)
        if res.verdict is Verdict.RESOURCE_LIMIT:
            continue
        jag = compile_program(prog, g.degree)
        cg = build_config_graph(jag, g, limits)
        if cg.limit_hit:
            continue
        verdict = accepts(jag, g, config_graph=cg)
        assert verdict is res.verdict
        if res.verdict is Verdict.ACCEPT:
            assert accepting_run_visits(cg) == res.visit_order
            # both searches count run length alike: a bound one short of
            # the first accept configuration's depth runs out, its depth
            # accepts along the same run
            parent, _, accepting = decoded(cg)
            depth, config = 0, accepting[0]
            while parent[config] is not None:
                depth, config = depth + 1, parent[config]
            short = Limits(max_run_len=depth - 1)
            assert interpret(prog, g, short).verdict is Verdict.RESOURCE_LIMIT
            assert accepts(jag, g, short) is Verdict.RESOURCE_LIMIT
            enough = Limits(max_run_len=depth)
            res_d = interpret(prog, g, enough)
            cg_d = build_config_graph(jag, g, enough)
            assert res_d.verdict is Verdict.ACCEPT
            assert accepts(jag, g, config_graph=cg_d) is Verdict.ACCEPT
            assert accepting_run_visits(cg_d) == res_d.visit_order \
                == res.visit_order
        checked += 1


def test_dead_variable_reset_changes_no_answer(monkeypatch):
    """Both routes search canonical states: against the unreduced search,
    made by a ``canon`` that resets nothing, every verdict, visit order and
    ``verify`` flag is the same and no count is larger; some are smaller.
    The random programs read bools, loop bounds and counters past pebble
    actions; tower programs and the every-form program join them."""
    import random as _random
    from jaglab.spotcheck import random_graph
    rng = _random.Random(23)
    cases = [(random_graph(rng, max_nodes=5, max_degree=2),
              random_program(rng)) for _ in range(300)]
    for spec in ("abelian:mod=4,4", "sym:n=3"):
        family = parse_family(spec)
        cases.append((family.graph, tower_program(family.tower)))
    cases.append((cycle(5, 2), parse_program(_EVERY_FORM)))

    def answers():
        out = []
        for g, prog in cases:
            res = interpret(prog, g)
            report = verify(compile_program(prog, g.degree), g)
            out.append((res, report))
        return out

    reduced = answers()
    monkeypatch.setattr(BoundProgram, "canon", lambda self, pt, vals: (pt, vals))
    plain = answers()
    merged = 0
    for (res, report), (res0, report0) in zip(reduced, plain):
        assert (res.verdict, res.visit_order) == (res0.verdict, res0.visit_order)
        assert (report.verdict, report.traversable, report.orderable,
                report.visit_order) == (report0.verdict, report0.traversable,
                                        report0.orderable, report0.visit_order)
        assert res.configs_explored <= res0.configs_explored
        assert report.configs_explored <= report0.configs_explored
        merged += report.configs_explored < report0.configs_explored
    assert merged >= 1


def test_fold_reads_only_the_partition():
    """At every reachable control point the fold of a placement is the fold
    of its partition, in the same order: ``interpret`` may cache it."""
    import random as _random
    from jaglab.spotcheck import random_graph
    rng = _random.Random(5)
    checked = 0
    for _ in range(200):
        g = random_graph(rng, max_nodes=5, max_degree=2)
        prog = random_program(rng)
        bp = prog.bind(g.degree)
        cg = build_config_graph(compile_program(prog, g.degree), g,
                                Limits(max_configs=20_000))
        for state, nodes in decoded(cg)[0]:
            if state == "qa" or bp.instrs[state[0]][0] in _ACTIONS:
                continue
            pt, vals = state
            assert bp.fold(pt, vals, nodes) == \
                bp.fold(pt, vals, partition_of(nodes))
            checked += 1
    assert checked >= 200


def test_fold_reads_only_the_compared_pairs():
    """Placements on which the pairs of ``observed(pt)`` share nodes alike
    fold alike from ``pt``: both routes key their fold answers on them."""
    import random as _random
    rng = _random.Random(8)
    keyed = draws = 0
    while keyed < 100:  # a coverage floor: draw until it is met
        draws += 1
        assert draws <= 1000, f"{keyed} keyed states in 1000 programs"
        prog = random_program(rng)
        bp = prog.bind(2)
        partitions = list(all_partitions(bp.num_pebbles))
        jag = compile_program(prog, 2)
        for state in reachable_states(jag):
            if state == "qa" or bp.instrs[state[0]][0] in _ACTIONS:
                continue
            pt, vals = state
            pairs = bp.observed(pt)
            folds = {}
            for pi in partitions:
                key = tuple(pi[i] == pi[j] for i, j in pairs)
                assert folds.setdefault(key, bp.fold(pt, vals, pi)) == \
                    bp.fold(pt, vals, pi)
            keyed += len(folds) > 1


def test_observed_pairs_are_0_based_and_distinct():
    """``p == p``, ``q == p`` and ``p == q`` ahead of one action observe one
    pair, 0-based with ``i < j``; an action point observes none.  The
    compiled automaton observes the same, and both routes agree."""
    prog = parse_program(
        "pebble p\npebble q\nmove q along 1\nif p == p {\n"
        "    if q == p {\n        fail\n    }\n"
        "    if p == q {\n        fail\n    }\n    accept\n}")
    bp = prog.bind(2)
    assert bp.pebble_names[:2] == ("p", "q")
    assert bp.instrs[1][:3] == ("ifeq", 1, 1)
    assert bp.observed(1) == ((0, 1),)
    actions = [pt for pt, op in enumerate(bp.instrs) if op[0] in _ACTIONS]
    assert len(actions) == 2
    assert all(bp.observed(pt) == () for pt in actions)
    jag = compile_program(prog, 2)
    assert jag.observes("qa") == ()
    for state in reachable_states(jag) - {"qa"}:
        assert jag.observes(state) == bp.observed(state[0])
    # q steps off p on a cycle, and stays on the one node of a loop
    for g, verdict in ((cycle(5, 2), Verdict.ACCEPT),
                       (LabelledGraph(1, 2, ((0, 0),), 0, 0), Verdict.REJECT)):
        res = interpret(prog, g)
        assert res.verdict is verdict
        assert res == _compiled_run(prog, g, Limits())


def _decider_answers(machine, g, limits):
    """The configuration graph ``machine``, an automaton or a program,
    builds on ``g`` (decoded), ``verify``'s whole report, and the answers
    of ``accepts``, ``check_traversable``, ``check_orderable`` and
    ``decide_co_st_connectivity`` on that graph; an error a decider raises
    is its answer."""
    cg = build_config_graph(machine, g, limits)
    parent, merges, accepting = decoded(cg)
    out = [verify(machine, g, limits), list(parent.items()), merges,
           accepting, cg.limit_hit]
    for decide in (accepts, check_traversable, check_orderable,
                   decide_co_st_connectivity):
        try:
            out.append(decide(machine, g, limits, config_graph=cg))
        except (DiagnosticError, ResourceLimitExceeded) as exc:
            out.append((type(exc), str(exc)))
    return out


def test_program_space_decides_as_its_compiled_automaton():
    """A program searched in its own space (``ProgramSpace``) builds the
    configuration graph of its compiled automaton, and every decider gives
    the same answer on the two, ``configs_explored`` and ``limits_hit``
    included: on the five small ladder rungs, on 1 000 random programs
    with no budget and under budgets that stop some of the searches, and
    on 300 more on graphs whose last label column repeats the first.
    There two labels walk alike, so moves along them that lead to the
    same state are two edges into one configuration in both spaces, as
    in the smallest such instance, which is checked first."""
    import random as _random
    from collections import Counter
    from jaglab.spotcheck import random_graph
    repro = parse_program(
        "pebble p\ndir x : 1..d\nguess x\nmove p along x\naccept\n")
    g = LabelledGraph(2, 2, ((1, 1), (0, 0)), 0, 1)
    program, compiled = (decoded(build_config_graph(m, g))
                         for m in (repro, compile_program(repro, 2)))
    assert program == compiled and len(program[1]) == 1  # one merge
    cases = []
    for spec in ("grid:d=2,l=5", "grid:d=3,l=3", "sym:n=4", "abelian:mod=8,8",
                 "wreath(grid:d=1,l=2, grid:d=1,l=3)"):
        family = parse_family(spec)
        g = family.graph
        prog = grid_traversal_program(g.degree) if spec.startswith("grid") \
            else tower_program(family.tower)
        cases.append((prog, g, Limits()))
    rng = _random.Random(5)
    for _ in range(1000):
        g = random_graph(rng, max_nodes=5, max_degree=2)
        prog = random_program(rng)
        cases += [(prog, g, limits) for limits in (
            Limits(), Limits(max_configs=5), Limits(max_run_len=2))]
    for _ in range(300):
        g = random_graph(rng, max_nodes=5, max_degree=2)
        g = LabelledGraph(g.num_nodes, g.degree,
                          tuple(row[:-1] + row[:1] for row in g.rho),
                          g.startnode, g.targetnode)
        cases.append((random_program(rng), g, Limits()))
    # random graphs rarely have a permutation column, and only a move along
    # one can lead to a fresh configuration
    for _ in range(300):
        g = permutation_graph(rng)
        prog = random_program(rng)
        cases += [(prog, g, limits) for limits in (
            Limits(), Limits(max_configs=5), Limits(max_run_len=2))]
    outcomes = Counter()
    for prog, g, limits in cases:
        got = _decider_answers(prog, g, limits)
        assert got == _decider_answers(compile_program(prog, g.degree), g,
                                       limits)
        outcomes[got[0].verdict, got[0].limits_hit] += 1
        outcomes["fresh"] += build_config_graph(prog, g, limits).fresh > 0
    assert all(outcomes[v, ()] >= 100 for v in (Verdict.ACCEPT, Verdict.REJECT))
    for hit in ("max_configs", "max_run_len"):
        assert outcomes[Verdict.RESOURCE_LIMIT, (hit,)] >= 100
    assert outcomes["fresh"] >= 300


def test_program_space_stores_the_tree_of_a_plain_search():
    """A program's search stores only the configurations that are not
    fresh, and its tree is that of a breadth-first search that stores
    every configuration (``plain_bfs``): the same count and limit hit, the
    same parent for each stored configuration, ``space.back`` of each fresh
    one its parent, the same merges and accept configurations in the same
    order, and no fresh configuration is an accept configuration or the
    target of a merge.  Stopped at the first accept configuration, the
    search has discovered what ``plain_bfs`` had before it expanded that
    configuration, fresh ones included.  On a complete graph each fresh
    configuration has exactly one edge into it, and ``cg.adj`` lists every
    configuration the build expanded.  On the five small ladder rungs,
    each of which has fresh configurations (the grid and abelian ones at
    the control points after a loop body's moves), on a move that a branch
    joins, on two chains that end on one level in the other order than the
    one they began in, and on 300 random programs on graphs whose every
    label column is a permutation, under budgets that cut through chains
    of fresh configurations."""
    import random as _random
    from collections import Counter
    cases = []
    for spec in ("grid:d=2,l=5", "grid:d=3,l=3", "sym:n=4", "abelian:mod=8,8",
                 "wreath(grid:d=1,l=2, grid:d=1,l=3)"):
        family = parse_family(spec)
        prog = grid_traversal_program(family.graph.degree) \
            if spec.startswith("grid") else tower_program(family.tower)
        cases.append((prog, family.graph, spec))
    # a branch joins the move after the jump: both paths reach one
    # configuration, which must be stored
    join = parse_program("pebble p\nguess b : bool\nif b {\n"
                         "    jump p to s\n}\nmove p along 1\naccept\n")
    cases.append((join, cycle(3, 1), None))
    rng = _random.Random(28)
    cases += [(random_program(rng), permutation_graph(rng), None)
              for _ in range(300)]
    # a straight run of 100 literal moves that alternate between two
    # pebbles: longer than one leap, which composes a table per pebble
    chain = parse_program("\n".join(
        ["pebble p", "pebble q", "dir x : 1..d", "guess x", "move p along x",
         "move q along x"]
        + [f"move {'pq'[i % 2]} along {'1d'[i % 2]}" for i in range(100)]
        + ["accept"]))
    cases.append((chain, permutation_graph(_random.Random(24)), None))
    # three branches, each one configuration wide: the first jumps and
    # then walks 5 moves, the second walks 6 and the third jumps 6 times.
    # Level 6 holds the first one's chain end, the third's configuration
    # and the second's chain end, which began a level earlier.
    walks = ["    jump q to p"] + ["    move p along 1"] * 5
    ends = parse_program("\n".join(
        ["pebble p", "pebble q", "guess b : bool", "if b {"] + walks
        + ["} else {", "    guess c : bool", "    if c {"]
        + ["        move p along 2"] * 6 + ["    } else {"]
        + [f"        jump q to {'st'[i % 2]}" for i in range(6)]
        + ["    }", "}", "move q along 1", "accept"]))
    cases.append((ends, cycle(5, 2), None))
    seen = Counter()
    for prog, g, spec in cases:
        budgets = [Limits(), Limits(max_configs=5), Limits(max_run_len=2)]
        if prog is chain:  # cuts inside the one chain
            budgets += [Limits(max_configs=100), Limits(max_run_len=70)]
        if prog is ends:  # stop before level 6 and after it
            budgets += [Limits(max_configs=18), Limits(max_configs=21),
                        Limits(max_run_len=5), Limits(max_run_len=6)]
        for limits in budgets:
            cg = build_config_graph(prog, g, limits)
            space = cg.space
            if prog is chain and limits == Limits():
                # a state after 'move p along x' is fresh, one per value of
                # x, but the walk of q leads all of them to one state: a
                # leap of no links
                assert {(leap[0], len(leap[2])) for leap in space.leaps
                        if type(leap) is tuple} == {(0, 0), (99, 2)}
            parent, merges, accepting, limit_hit = plain_bfs(space, limits)
            assert (cg.configs_explored, cg.limit_hit) == \
                (len(parent), limit_hit)
            assert cg.merges == merges
            assert cg.accepting == list(accepting)
            if prog is ends and limits == Limits():
                # the links left at each configuration of levels 1, 2 and
                # 6 (None: stored): a chain of 5 links from the last place
                # of level 1 and one of 4 from the first place of level 2
                # both end on level 6
                depth = {}
                for c, above in parent.items():
                    depth[c] = 0 if above is None else depth[above] + 1
                assert [[space.leap(c >> space.B)[0]
                         if space.leaps[c >> space.B] is not None else None
                         for c in parent if depth[c] == d]
                        for d in (1, 2, 6)] == \
                    [[None, None, 5], [4, None, 4], [0, None, 0]]
            got = expand(space, limits, stop_at_accept=True)
            if accepting:
                first, discovered = next(iter(accepting.items()))
                order = list(parent)[:discovered]
                assert got[2:4] == ([first], None)
                assert list(got[0]) == [c for c in order if c in cg.parent]
                assert got[4] == discovered - len(got[0])
            else:
                assert got == (cg.parent, cg.merges, [], cg.limit_hit,
                               cg.fresh)
            assert list(cg.parent) == [c for c in parent if c in cg.parent]
            assert all(parent[c] == above for c, above in cg.parent.items())
            fresh = [c for c in parent if c not in cg.parent]
            assert len(fresh) == cg.fresh
            assert all(space.leaps[c >> space.B] is not None and c >= space.N
                       and space.back(c) == parent[c] for c in fresh)
            assert not {s for _, s in cg.merges} & set(fresh)
            if limit_hit is None:
                into = Counter(s for c in parent for s in space.step(c))
                assert all(into[c] == 1 for c in fresh)
            # adj: every configuration the build expanded, fresh ones too;
            # a budget leaves the last level discovered unexpanded
            depth = {}
            for c, above in parent.items():
                depth[c] = 0 if above is None else depth[above] + 1
            last = max(depth.values())
            expanded = [c for c in parent
                        if limit_hit is None or depth[c] < last]
            conf = {c: space.decode(c) for c in parent}
            assert list(cg.adj) == [conf[c] for c in expanded]
            assert all(cg.adj[conf[c]] == [conf[s] for s in space.step(c)]
                       for c in expanded)
            if spec is not None and limits == Limits():
                assert cg.fresh > 0
            seen[limit_hit] += cg.fresh > 0
    assert min(seen[hit] for hit in (None, "max_configs", "max_run_len")) >= 30


def test_budgets_mean_the_same_on_both_routes():
    """Every run-length bound up to the first accept configuration's depth,
    and a configuration budget at (and one below) each level boundary,
    gives ``interpret`` and the compiled build the same verdict and, when
    the budget runs out, the same count."""
    import random as _random
    from collections import Counter
    from jaglab.spotcheck import random_graph
    rng = _random.Random(91)
    outcomes = Counter()
    for _ in range(40):
        g = random_graph(rng, max_nodes=4, max_degree=2)
        prog = random_program(rng)
        jag = compile_program(prog, g.degree)
        cg = build_config_graph(jag, g, Limits(max_configs=20_000))
        if cg.limit_hit:
            continue
        parents, _, accepting = decoded(cg)
        depth = {}
        for config, parent in parents.items():  # parents come first
            depth[config] = 0 if parent is None else depth[parent] + 1
        top = depth[accepting[0]] if accepting else max(depth.values())
        budgets = [Limits(max_run_len=k) for k in range(top + 1)]
        for k in range(top + 1):
            level_end = sum(d <= k for d in depth.values())
            budgets += [Limits(max_configs=level_end - 1),
                        Limits(max_configs=level_end)]
        for limits in budgets:
            res = interpret(prog, g, limits)
            part = build_config_graph(jag, g, limits)
            assert res.verdict is accepts(jag, g, config_graph=part)
            if res.verdict is Verdict.RESOURCE_LIMIT:
                assert res.configs_explored == part.configs_explored
            outcomes[res.verdict] += 1
    assert min(outcomes[v] for v in Verdict) >= 20


def test_budgets_that_cut_inside_a_leapt_chain():
    """The sym:n=4 and wreath tower programs' searches leap over chains of
    fresh configurations.  Every run-length bound from 0 to 60, and
    configuration budgets at and one below 25 seeded level boundaries
    above the first accept configuration, give ``interpret`` and ``run``
    on the compiled automaton, which has no chains, the same
    ``RunResult``.  Some of those budgets stop the search at a level that
    a chain crosses: a fresh link there whose parent is a fresh link
    too, so the search holds it as a slot it has passed on."""
    import itertools
    import random as _random
    rng = _random.Random(29)
    inside = 0
    for spec in ("sym:n=4", "wreath(grid:d=1,l=2, grid:d=1,l=3)"):
        family = parse_family(spec)
        prog, g = tower_program(family.tower), family.graph
        space = prog.space(g)
        parent = plain_bfs(space)[0]
        depth = {}
        for c, above in parent.items():
            depth[c] = 0 if above is None else depth[above] + 1
        levels = [[] for _ in range(max(depth.values()) + 1)]
        for c, d in depth.items():
            levels[d].append(c)
        top = min(depth[c] for c in parent if c < space.N)
        # ends[d]: the configurations in levels 0 to d, which the
        # configuration budget reads before level d; each budget is paired
        # with the level it stops the search before
        ends = list(itertools.accumulate(map(len, levels)))
        cuts = [(Limits(max_run_len=r), r + 1) for r in range(61)]
        for d in rng.sample(range(top), 25):
            cuts += [(Limits(max_configs=ends[d]), d + 1),
                     (Limits(max_configs=ends[d] - 1), d)]
        leaps = space.leaps

        def link(c):
            return leaps[c >> space.B] is not None and all(
                leaps[s >> space.B] is not None for s in space.step(c))

        for limits, cut in cuts:
            res = interpret(prog, g, limits)
            assert res == _compiled_run(prog, g, limits), (spec, limits)
            assert res.verdict is Verdict.RESOURCE_LIMIT
            assert res.configs_explored == ends[cut]
            inside += any(link(c) and link(space.back(c))
                          for c in levels[cut])
    assert inside >= 100


def test_interpret_steps_a_chain_once(monkeypatch):
    """``interpret`` of a tower program steps the end of each chain of
    fresh configurations, not each link: at most 2 500 calls of
    ``space.step`` for sym:n=4's 15 881 configurations, 9 000 for
    abelian:mod=8,8's 36 073 and 63 000 for sym:n=5's 547 157.  On the
    sym rungs the chains run through the moves of a loop body's word and
    through the ``fornext`` control points between iterations; on
    abelian:mod=8,8 each loop body is one move, so every fresh state sits
    at a ``fornext``."""
    from jaglab import lang
    calls = []

    class Counted(lang.ProgramSpace):
        def __init__(self, prog, g):
            super().__init__(prog, g)
            step = self.step

            def counted(c):
                calls.append(c)
                return step(c)

            self.step = counted

    for spec, explored, most in [("sym:n=4", 15_881, 2_500),
                                 ("abelian:mod=8,8", 36_073, 9_000),
                                 ("sym:n=5", 547_157, 63_000)]:
        family = parse_family(spec)
        prog, g = tower_program(family.tower), family.graph
        calls.clear()
        monkeypatch.setattr(lang, "ProgramSpace", Counted)
        res = interpret(prog, g)
        monkeypatch.undo()
        assert res == _compiled_run(prog, g, Limits()), spec
        assert res.configs_explored == explored, spec
        assert len(calls) <= most, (spec, len(calls))


def _compiled_run(prog, g, limits):
    """The compiled automaton searched as ``interpret`` searches the
    program: ``run`` over the automaton's own space."""
    return run(compile_program(prog, g.degree).space(g), limits)


@pytest.mark.parametrize("case", [
    "one node", "300 nodes, 9 pebbles", "abelian 4x4 tower",
    "accept first", "accept first with curr", "self and co-located jumps"])
def test_packed_configurations_match_the_compiled_route(case):
    """``interpret`` searches the program's ``ProgramSpace`` and the
    compiled route its automaton's ``PackedSpace``; both pack a
    configuration into one int of bit fields.  On the packing's edge cases,
    under no budget and under budgets that stop each search, both give the
    same verdict, visit order and ``configs_explored``."""
    from jaglab.machine import accepting_run_visits
    if case == "one node":  # fields of 0 bits: every placement code is 0
        progs = [grid_traversal_program(2), parse_program(MANY_PEBBLES)]
        g = LabelledGraph(1, 2, ((0, 0),), 0, 0)
    elif case == "300 nodes, 9 pebbles":
        progs = [parse_program(MANY_PEBBLES)]
        g = cycle(300, 40)
        assert progs[0].space(g).N == 2 ** 81  # nine fields of 9 bits
    elif case == "abelian 4x4 tower":  # nearly every step folds control flow
        family = parse_family("abelian:mod=4,4")
        progs, g = [tower_program(family.tower)], family.graph
    elif case == "accept first":
        progs, g = [parse_program("accept\nfail")], cycle(5, 2)
    elif case == "accept first with curr":
        progs = [parse_program("pebble curr at target\naccept"),
                 parse_program("pebble curr\naccept")]
        g = cycle(5, 2)
    else:
        progs = [parse_program(
            "pebble curr\npebble a\nmove a along 2\njump a to a\n"
            "jump curr to a\njump a to curr\nif a == curr {\n"
            "    jump curr to curr\n    move a along 2\n    visit a\n}\n"
            "jump s to s\naccept")]
        g = cycle(6, 3)
    for prog in progs:
        full = interpret(prog, g)
        k = full.configs_explored
        budgets = [Limits()]
        budgets += [Limits(max_configs=m)
                    for m in sorted({0, 1, k // 2, k - 1, k})]
        budgets += [Limits(max_run_len=r) for r in (0, 1, 2, 5, 40)]
        for limits in budgets:
            res = interpret(prog, g, limits)
            assert res == _compiled_run(prog, g, limits), limits
            jag = compile_program(prog, g.degree)
            cg = build_config_graph(jag, g, limits)
            assert res.verdict is accepts(jag, g, config_graph=cg)
            if res.verdict is Verdict.ACCEPT and jag.curr is not None:
                assert res.visit_order == accepting_run_visits(cg)
        assert full.verdict is Verdict.ACCEPT
