"""The run-tree oracle, and randomized agreement checks against it.

``expected`` decides all four questions from ``enumerate_runs`` alone, a
run-tree search with no visited set that shares nothing with the
configuration-graph build; ``disagreement`` compares every decider with it;
``run_spotcheck`` does both on seeded random automata and graphs.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .errors import DiagnosticError, InputError
from .graph import LabelledGraph, closure, reachable_set
from .machine import (ConfigGraph, Configuration, Limits, NdJag, Verdict,
                      accepts, all_partitions, apply_moves,
                      build_config_graph, check_orderable, check_traversable,
                      decide_co_st_connectivity, enumerate_runs,
                      initial_config, partition_of, replay_curr_visits, run,
                      verify)


def random_graph(rng: random.Random, max_nodes: int = 6, max_degree: int = 3) -> LabelledGraph:
    n = rng.randint(2, max_nodes)
    d = rng.randint(1, max_degree)
    rows = tuple(tuple(rng.randrange(n) for _ in range(d)) for _ in range(n))
    return LabelledGraph(n, d, rows, 0, rng.randrange(n))


def random_jag(rng: random.Random, degree: int, max_states: int = 4,
               max_pebbles: int = 3) -> NdJag:
    nstates = rng.randint(2, max_states)
    p = rng.randint(2, max_pebbles)
    states = [f"q{i}" for i in range(nstates)]
    accept = states[-1]
    rules = {}
    for state in states:  # the accept state too: runs continue past it
        for pi in all_partitions(p):
            outs = tuple(
                (rng.choice(states),
                 tuple(rng.randint(1, degree) if rng.random() < 0.5
                       else -rng.randint(1, p) for _ in range(p)))
                for _ in range(rng.randint(0, 2)))
            if outs:
                rules[(state, pi)] = outs
    return NdJag(states[0], accept, p, s=1, t=2,
                 curr=3 if p >= 3 else None, delta=rules, states=tuple(states))


@dataclass(frozen=True)
class Expected:
    """The oracle's answer; without a curr pebble it has only ``accepts``."""

    accepts: bool
    traversable: bool | None = None
    orderable: bool | None = None
    co_st: str | None = None  # None also when the automaton rejects
    orders: frozenset | None = None  # the first-visit sequences of curr


def _oracle_step(jag: NdJag, g: LabelledGraph):
    """The step of a run, by ``apply_moves``; a run ends at acceptance."""
    def step(config):
        state, nodes = config
        if state != jag.accept_state:
            for nxt, moves in jag.transitions(state, partition_of(nodes)):
                yield Configuration(nxt, apply_moves(g, nodes, moves))
    return step


def run_tree_nodes(jag: NdJag, g: LabelledGraph, max_len: int,
                   cap: int) -> int:
    """The number of nodes ``enumerate_runs(jag, g, max_len)`` expands, or
    a number above ``cap`` as soon as the count passes it.

    Those are the run-tree nodes that are not accepting and have fewer
    than ``max_len`` steps, one per transition taken, duplicates included.
    They are counted a depth at a time as a multiset of configurations, so
    the count costs at most one step per configuration and depth however
    many runs the tree holds.
    """
    step = _oracle_step(jag, g)
    level = Counter([initial_config(jag, g)])
    total = 0
    for _ in range(max_len):
        nxt = Counter()
        for config, k in level.items():
            if config.state != jag.accept_state:
                total += k
                if total > cap:
                    return total
                for s in step(config):
                    nxt[s] += k
        if not nxt:
            break
        level = nxt
    return total


def expected(jag: NdJag, g: LabelledGraph,
             max_tree_nodes: int) -> Expected | None:
    """What the deciders must answer for ``jag`` on ``g``, read off the
    accepting runs of fewer than n * C steps; None when their run tree has
    more than ``max_tree_nodes`` nodes to expand, which ``run_tree_nodes``
    tells before any run is enumerated.

    n is the node count and C the number of configurations that runs reach
    up to their first accept configuration, counted by ``graph.closure``
    over the oracle's own step.  The bound loses no first-visit sequence of
    curr.  Cut an accepting run where curr first visits a node, into at
    most n stretches.  If a configuration occurs twice within a stretch,
    drop the steps between the two: the rest is still a run that ends at
    its first accept configuration, and the dropped steps visit no new
    node (a new node starts a stretch), so the sequence stays the same.
    Then each stretch has at most C configurations, and the run fewer than
    n * C steps.
    """
    bound = g.num_nodes * len(closure(initial_config(jag, g),
                                      _oracle_step(jag, g)))
    if run_tree_nodes(jag, g, bound, max_tree_nodes) > max_tree_nodes:
        return None
    runs = enumerate_runs(jag, g, max_len=bound,
                          max_tree_nodes=max_tree_nodes)
    if jag.curr is None:
        return Expected(bool(runs))
    orders = frozenset(replay_curr_visits(jag, g, trace) for trace in runs)
    reach = reachable_set(g, g.startnode)
    traversable = bool(orders) and all(reach <= set(o) for o in orders)
    co_st = None if not orders else "connected" if any(
        g.targetnode in o for o in orders) else "disconnected"
    return Expected(bool(orders), traversable,
                    traversable and len(orders) == 1, co_st, orders)


def disagreement(jag: NdJag, g: LabelledGraph, cg: ConfigGraph,
                 exp: Expected) -> str | None:
    """The first decider answer for ``jag`` on ``g`` (``cg`` its configuration
    graph) that differs from ``exp``, as one line that starts with the field,
    or None.  ``run`` is the first-accept search, checked for its verdict
    and visit order.  ``check_orderable`` answers only whether the order is
    shared; co-st must raise ``DiagnosticError`` when the oracle rejects."""
    want = Verdict.ACCEPT if exp.accepts else Verdict.REJECT
    report = verify(jag, g)
    ran = run(jag.space(g))
    for who, got in (("accepts", accepts(jag, g, config_graph=cg)),
                     ("verify", report.verdict), ("run", ran.verdict)):
        if got is not want:
            return f"verdict: {who} gives {got.value}, the oracle {want.value}"
    if jag.curr is None:
        return None
    order = report.visit_order
    trav, witness = check_traversable(jag, g, config_graph=cg)
    shared, canon = check_orderable(jag, g, config_graph=cg)
    if order not in (exp.orders or {None}) or \
            not witness == canon == ran.visit_order == order:
        return (f"visit_order: verify gives {order}, check_traversable "
                f"{witness}, check_orderable {canon}, run {ran.visit_order}, "
                f"runs {set(exp.orders)}")
    try:
        co_st = decide_co_st_connectivity(jag, g, config_graph=cg)
    except DiagnosticError:
        co_st = "DiagnosticError"
    for field, who, got, want in (
            ("traversable", "verify", report.traversable, exp.traversable),
            ("traversable", "check_traversable", trav, exp.traversable),
            ("orderable", "verify", report.orderable, exp.orderable),
            ("orderable", "check_orderable", shared, len(exp.orders) == 1),
            ("co-st", "decide_co_st_connectivity", co_st,
             exp.co_st or "DiagnosticError")):
        if got != want:
            return f"{field}: {who} gives {got}, the oracle {want}"
    return None


@dataclass(frozen=True)
class SpotcheckResult:
    pairs: int
    agreements: int
    discarded: int
    reason: str | None = None  # the first disagreement

    @property
    def ok(self) -> bool:
        return self.agreements == self.pairs


def run_spotcheck(pairs: int = 50, seed: int = 0,
                  max_configs: int = 10_000,
                  max_tree_nodes: int = 400_000) -> SpotcheckResult:
    """Compare every decider with the oracle on ``pairs`` random (automaton,
    graph) instances.  Each kept instance has at most ``max_configs``
    reachable configurations and a run tree the oracle can exhaust.
    Returns the agreement tally and the first disagreement.

    Raises ``InputError`` when either budget is below 1: every initial
    configuration exceeds it, so no instance could be kept.
    """
    if max_configs < 1 or max_tree_nodes < 1:
        raise InputError("spotcheck needs budgets of at least 1 to keep "
                         "any instance")
    rng = random.Random(seed)
    kept = agreements = discarded = 0
    reason = None
    while kept < pairs:
        g = random_graph(rng)
        jag = random_jag(rng, g.degree)
        cg = build_config_graph(jag, g, Limits(max_configs=max_configs))
        exp = None if cg.limit_hit else expected(jag, g, max_tree_nodes)
        if exp is None:
            discarded += 1
            continue
        kept += 1
        why = disagreement(jag, g, cg, exp)
        if why is None:
            agreements += 1
        elif reason is None:
            reason = why
    return SpotcheckResult(kept, agreements, discarded, reason)
