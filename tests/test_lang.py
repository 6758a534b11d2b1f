import pytest

from jaglab.errors import (DiagnosticError, ProgramError,
                           ResourceLimitExceeded)
from jaglab.families import parse_family
from jaglab.graph import LabelledGraph
from jaglab.lang import (_ACTIONS, BoundProgram, RunResult, compile_program,
                        interpret, parse_program)
from jaglab.machine import (Limits, Verdict, accepts, all_partitions,
                            build_config_graph, check_orderable,
                            check_traversable, decide_co_st_connectivity,
                            enumerate_runs, partition_of, verify)
from jaglab.algorithms import grid_traversal_program, tower_program

from conftest import decoded, random_program, successors


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
    assert len(reachable_states(jag)) <= bp.points() * domain_product + 1


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
    live = [_live(bp, pt, "xycf") for pt in range(bp.points())]
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
    cases.append((_cycle(5, 2), parse_program(_EVERY_FORM)))

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
    for g, verdict in ((_cycle(5, 2), Verdict.ACCEPT),
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
    included: on the five small ladder rungs, and on 1 000 random programs
    with no budget and under budgets that stop some of the searches."""
    import random as _random
    from collections import Counter
    from jaglab.spotcheck import random_graph
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
    outcomes = Counter()
    for prog, g, limits in cases:
        got = _decider_answers(prog, g, limits)
        assert got == _decider_answers(compile_program(prog, g.degree), g,
                                       limits)
        outcomes[got[0].verdict, got[0].limits_hit] += 1
    assert all(outcomes[v, ()] >= 100 for v in (Verdict.ACCEPT, Verdict.REJECT))
    for hit in ("max_configs", "max_run_len"):
        assert outcomes[Verdict.RESOURCE_LIMIT, (hit,)] >= 100


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


def _compiled_run(prog, g, limits):
    """The compiled automaton searched as ``interpret`` searches its
    packed configurations: ``expand`` over ``conftest.successors``, stopped
    at the first accept configuration it expands."""
    from jaglab.machine import expand, first_visits, initial_config
    jag = compile_program(prog, g.degree)
    accepted = []

    def visit(config):
        if config.state == jag.accept_state:
            accepted.append(config)
            return True
        return False

    parent, _, limit_hit = expand(initial_config(jag, g), successors(jag, g),
                                  limits, visit)
    if not accepted:
        verdict = Verdict.RESOURCE_LIMIT if limit_hit else Verdict.REJECT
        return RunResult(verdict, None, len(parent))
    order = None
    if jag.curr is not None:
        curr = jag.curr - 1
        order = first_visits(parent, accepted[0], lambda c: c.nodes[curr])
    return RunResult(Verdict.ACCEPT, order, len(parent))


# nine pebbles with s and t: on 300 nodes N = 300**9, so every packed
# configuration but an accept one exceeds 2**63.  c jumps to itself, a to
# b while they share a node, and curr walks the cycle from a to the
# targetnode.
_MANY_PEBBLES = """
pebble curr
pebble a
pebble b
pebble c
pebble u
pebble w
pebble z at target
dir x : 1..d
guess x
move a along x
b := a.1
move a along 1
jump c to c
if a == b {
    jump a to b
    jump u to b
}
jump w to z
visit a
while curr != z {
    move curr along 2
}
accept
"""


def _cycle(n, target):
    """n nodes in a cycle: label 1 steps back, label 2 forward."""
    rows = tuple(((v - 1) % n, (v + 1) % n) for v in range(n))
    return LabelledGraph(n, 2, rows, 0, target)


@pytest.mark.parametrize("case", [
    "one node", "300 nodes, 9 pebbles", "abelian 4x4 tower",
    "accept first", "accept first with curr", "self and co-located jumps"])
def test_packed_configurations_match_the_compiled_route(case):
    """``interpret`` packs a configuration into one int in radix n; the
    compiled route keeps ``Configuration`` tuples.  On the packing's edge
    cases, under no budget and under budgets that stop each search, both
    give the same verdict, visit order and ``configs_explored``."""
    from jaglab.machine import accepting_run_visits
    if case == "one node":  # radix 1: every placement code is 0
        progs = [grid_traversal_program(2), parse_program(_MANY_PEBBLES)]
        g = LabelledGraph(1, 2, ((0, 0),), 0, 0)
    elif case == "300 nodes, 9 pebbles":
        progs = [parse_program(_MANY_PEBBLES)]
        g = _cycle(300, 40)
        assert g.num_nodes ** progs[0].bind(2).num_pebbles > 2 ** 63
    elif case == "abelian 4x4 tower":  # nearly every step folds control flow
        family = parse_family("abelian:mod=4,4")
        progs, g = [tower_program(family.tower)], family.graph
    elif case == "accept first":
        progs, g = [parse_program("accept\nfail")], _cycle(5, 2)
    elif case == "accept first with curr":
        progs = [parse_program("pebble curr at target\naccept"),
                 parse_program("pebble curr\naccept")]
        g = _cycle(5, 2)
    else:
        progs = [parse_program(
            "pebble curr\npebble a\nmove a along 2\njump a to a\n"
            "jump curr to a\njump a to curr\nif a == curr {\n"
            "    jump curr to curr\n    move a along 2\n    visit a\n}\n"
            "jump s to s\naccept")]
        g = _cycle(6, 3)
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
