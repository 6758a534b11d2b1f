"""Metamorphic relations: an answer against the system's own answer on a
transformed input, where no oracle reaches.

Node relabelling.  Permuting the node ids of the input graph, the startnode
and the targetnode included, renames the nodes and nothing else: the
search meets the same configurations in the same order, so the verdict,
the flags, ``configs_explored`` and ``limits_hit`` stay equal under every
budget, and the visit order maps through the permutation.  Both spaces
pack each node into a bit field, so the relation checks their field
arithmetic at every node id.

Label permutation.  Permuting the edge labels of the input graph, and
rewriting every move along a label in a rule table the same way, moves
every pebble to the same node as before: the answers stay equal, visit
orders included, under every budget.

Pebble renumbering.  Renumbering the pebbles of a rule table, the
designated ``s``, ``t`` and ``curr`` moving with them, and rewriting each
rule's partition and move vector to match, gives each configuration the
same successors in the same order: the answers stay equal under every
budget.
"""

import random
from collections import Counter

import pytest

from jaglab.errors import DiagnosticError, InputError, ResourceLimitExceeded
from jaglab.families import parse_family
from jaglab.algorithms import tower_program
from jaglab.graph import LabelledGraph
from jaglab.machine import (Limits, NdJag, Verdict, decide_co_st_connectivity,
                            partition_of, run, verify)
from jaglab.spotcheck import random_graph, random_jag

from conftest import random_program, relabelled


def _answers(x, g, limits, perm=None):
    """``verify``'s report, ``run``'s result and the co-st answer (or the
    name of the error it raised) for ``x`` on ``g`` under ``limits``, with
    every visit order's nodes renamed by ``perm``."""
    def renamed(order):
        return None if order is None or perm is None else \
            tuple([perm[v] for v in order])

    report = verify(x, g, limits)
    ran = run(x.space(g), limits)
    try:
        co_st = decide_co_st_connectivity(x, g, limits)
    except (DiagnosticError, InputError, ResourceLimitExceeded) as exc:
        co_st = type(exc).__name__
    if perm is not None:
        report = type(report)(**{**report.__dict__,
                                 "visit_order": renamed(report.visit_order)})
        ran = type(ran)(ran.verdict, renamed(ran.visit_order),
                        ran.configs_explored)
    return report, ran, co_st


def _assert_relabelling_holds(x, g, limits, rng):
    perm = list(range(g.num_nodes))
    rng.shuffle(perm)
    want = _answers(x, g, limits, perm)
    assert _answers(x, relabelled(g, perm), limits) == want, (perm, limits)
    return want


def test_node_relabelling_on_random_instances():
    """Rule tables and pebble programs on random graphs, with no budget
    and under budgets that stop the search."""
    rng = random.Random(26)
    seen = Counter()
    for k in range(400):
        if k % 2:
            g = random_graph(rng)
            x = random_jag(rng, g.degree)
        else:
            g = random_graph(rng, max_nodes=5, max_degree=2)
            x = random_program(rng)
        for limits in (Limits(), Limits(max_configs=6),
                       Limits(max_run_len=2)):
            report, ran, co_st = _assert_relabelling_holds(x, g, limits, rng)
            seen[report.verdict] += 1
            seen[report.limits_hit] += 1
            seen["orderable"] += bool(report.orderable)
            seen["long order"] += len(ran.visit_order or ()) > 2
            seen[co_st] += 1
    assert min(seen[v] for v in Verdict) >= 200
    assert min(seen[hit] for hit in (("max_configs",), ("max_run_len",))) >= 50
    assert min(seen[key] for key in ("orderable", "connected",
                                     "disconnected")) >= 100
    assert seen["long order"] >= 10


def _labels_permuted(g, jag, sigma):
    """``g`` with label l + 1 renamed ``sigma[l] + 1``, and the rule table
    ``jag`` with every move along a label renamed alike."""
    rho = []
    for row in g.rho:
        new = [None] * g.degree
        for label, u in enumerate(row):
            new[sigma[label]] = u
        rho.append(tuple(new))
    rules = {key: tuple([(nxt, tuple([sigma[m - 1] + 1 if m > 0 else m
                                      for m in moves]))
                         for nxt, moves in outs])
             for key, outs in jag.rules.items()}
    return (LabelledGraph(g.num_nodes, g.degree, tuple(rho), g.startnode,
                          g.targetnode),
            NdJag(jag.start_state, jag.accept_state, jag.num_pebbles, s=jag.s,
                  t=jag.t, curr=jag.curr, delta=rules, states=jag.states))


def test_label_permutation_on_random_rule_tables():
    """Rule tables on random graphs, with no budget and under budgets that
    stop the search: permuting the labels of the graph and of the moves
    alike leaves every answer equal."""
    rng = random.Random(27)
    seen = Counter()
    for _ in range(1000):
        g = random_graph(rng)
        jag = random_jag(rng, g.degree)
        sigma = list(range(g.degree))
        rng.shuffle(sigma)
        pg, pjag = _labels_permuted(g, jag, sigma)
        seen["permuted"] += sigma != sorted(sigma)
        for limits in (Limits(), Limits(max_configs=6),
                       Limits(max_run_len=2)):
            want = _answers(jag, g, limits)
            assert _answers(pjag, pg, limits) == want, (sigma, limits)
            seen[want[0].verdict] += 1
            seen[want[0].limits_hit] += 1
            seen["long order"] += len(want[1].visit_order or ()) > 2
    assert seen["permuted"] >= 400
    assert min(seen[v] for v in Verdict) >= 200
    assert min(seen[hit] for hit in (("max_configs",), ("max_run_len",))) >= 50
    assert seen["long order"] >= 10


def _pebbles_renumbered(jag, sigma):
    """The rule table ``jag`` with pebble i + 1 renumbered ``sigma[i] +
    1``: the designated pebbles move with their numbers, each rule's key
    is the canonical partition of the renumbered placement, and each move
    vector lists the same moves in the new pebble order, a jump to pebble
    j becoming a jump to ``sigma[j - 1] + 1``."""
    def renumbered(vector):
        out = [None] * len(vector)
        for i, x in enumerate(vector):
            out[sigma[i]] = x
        return tuple(out)

    def moved(idx):
        return None if idx is None else sigma[idx - 1] + 1

    # a partition vector is a placement of its own partition
    rules = {(state, partition_of(renumbered(pi))): tuple([
        (nxt, renumbered([m if m > 0 else -moved(-m) for m in moves]))
        for nxt, moves in outs])
        for (state, pi), outs in jag.rules.items()}
    return NdJag(jag.start_state, jag.accept_state, jag.num_pebbles,
                 s=moved(jag.s), t=moved(jag.t), curr=moved(jag.curr),
                 delta=rules, states=jag.states)


def test_pebble_renumbering_on_random_rule_tables():
    """Rule tables on random graphs, with no budget and under budgets that
    stop the search: renumbering the pebbles leaves every answer equal."""
    rng = random.Random(28)
    seen = Counter()
    for _ in range(1000):
        g = random_graph(rng)
        jag = random_jag(rng, g.degree)
        sigma = list(range(jag.num_pebbles))
        rng.shuffle(sigma)
        pjag = _pebbles_renumbered(jag, sigma)
        seen["renumbered"] += sigma != sorted(sigma)
        seen["s, t or curr moved"] += (pjag.s, pjag.t, pjag.curr) != \
            (jag.s, jag.t, jag.curr)
        for limits in (Limits(), Limits(max_configs=6),
                       Limits(max_run_len=2)):
            want = _answers(jag, g, limits)
            assert _answers(pjag, g, limits) == want, (sigma, limits)
            seen[want[0].verdict] += 1
            seen[want[0].limits_hit] += 1
            seen["long order"] += len(want[1].visit_order or ()) > 2
    assert seen["s, t or curr moved"] >= 400
    assert min(seen[v] for v in Verdict) >= 200
    assert min(seen[hit] for hit in (("max_configs",), ("max_run_len",))) >= 50
    assert seen["long order"] >= 10


@pytest.mark.parametrize("spec", ["sym:n=4",
                                  "wreath(grid:d=1,l=2, grid:d=1,l=3)"])
def test_node_relabelling_on_tower_rungs(spec):
    """The tower programs of two ladder rungs, 24 nodes each, with no
    budget and under budgets that stop the search halfway."""
    family = parse_family(spec)
    prog, g = tower_program(family.tower), family.graph
    rng = random.Random(spec)
    full = _assert_relabelling_holds(prog, g, Limits(), rng)[0]
    assert full.orderable and len(full.visit_order) == g.num_nodes
    for limits in (Limits(max_configs=full.configs_explored // 2),
                   Limits(max_run_len=40)):
        report = _assert_relabelling_holds(prog, g, limits, rng)[0]
        assert report.verdict is Verdict.RESOURCE_LIMIT
