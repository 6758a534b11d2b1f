"""Seeded random rule-table automata on random graphs, and their run oracle.

The generator lives here, not in ``jaglab.spotcheck``, so the instance set
depends only on the seed and on this file.  It draws the same number of
instances from every (nodes, degree, states) class, which keeps the mix of
instance sizes the same from seed to seed.  Every automaton has three
pebbles (s=1, t=2, curr=3).  Each (state, partition) pair, the accept state's
included, gets one or two rules unless it is left dead with probability
``DEAD``; so most automata live past the first step, their configuration
graphs merge and cycle, and runs continue past acceptance.

The oracle decides acceptance, traversability and orderability from
``enumerate_runs`` and ``replay_curr_visits`` alone, with a run-length bound
that makes the answer exact:

* An accepting run with a given first-visit sequence of curr can be cut to
  one of length at most ``n * C``, where ``n`` is the node count and ``C``
  the number of configurations reachable without passing the accept state.
  Between two first visits a run can drop any loop in its configurations
  without changing the sequence, and there are at most ``n`` such stretches.
* So the runs of length at most ``n * C`` show every first-visit sequence
  of every accepting run: the automaton accepts iff there is one, it is
  traversable iff each covers the nodes reachable from the startnode, and
  orderable iff in addition there is exactly one sequence.

``C`` is counted by a search written here, independent of the machine
layer.  Instances whose run tree exceeds ``ORACLE_TREE_NODES`` are left
unchecked and counted, never guessed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from jaglab.errors import ResourceLimitExceeded
from jaglab.graph import LabelledGraph, reachable_set
from jaglab.machine import NdJag, Verdict, enumerate_runs, replay_curr_visits

PEBBLES = 3
NODES = (3, 4, 5, 6)
DEGREES = (1, 2, 3)
STATES = (2, 3, 4)
PER_CLASS = 60
DEAD = 0.1
ORACLE_TREE_NODES = 1000


@dataclass(frozen=True)
class Instance:
    label: str
    jag: NdJag
    graph: LabelledGraph


@dataclass(frozen=True)
class Expected:
    """What the oracle found: the verdict flags and the first-visit sequences."""

    accepts: bool
    traversable: bool
    orderable: bool
    orders: frozenset  # first-visit sequences of curr over all accepting runs


def partitions(p: int) -> list[tuple]:
    """Canonical incidence partitions of p pebbles: each entry is the least
    index of a pebble on the same node (restricted growth strings)."""
    out = [(1,)]
    for i in range(2, p + 1):
        out = [pi + (j,) for pi in out for j in sorted(set(pi)) + [i]]
    return out


def _instance(rng: random.Random, label: str, n: int, d: int, k: int) -> Instance:
    rho = tuple(tuple(rng.randrange(n) for _ in range(d)) for _ in range(n))
    g = LabelledGraph(n, d, rho, 0, rng.randrange(n))
    states = tuple(f"q{i}" for i in range(k))
    rules = {}
    for state in states:
        for pi in partitions(PEBBLES):
            if rng.random() < DEAD:
                continue
            rules[(state, pi)] = tuple(
                (rng.choice(states),
                 tuple(rng.randint(1, d) if rng.random() < 0.5
                       else -rng.randint(1, PEBBLES) for _ in range(PEBBLES)))
                for _ in range(rng.randint(1, 2)))
    jag = NdJag(states[0], states[-1], PEBBLES, s=1, t=2, curr=3,
                delta=rules, states=states)
    return Instance(label, jag, g)


def generate(seed: int, per_class: int = PER_CLASS) -> list[Instance]:
    rng = random.Random(seed)
    return [_instance(rng, f"r{n}.{d}.{k}.{i}", n, d, k)
            for n in NODES for d in DEGREES for k in STATES
            for i in range(per_class)]


def _pre_accept_configs(jag: NdJag, g: LabelledGraph) -> int:
    """Configurations reachable from the initial one without leaving an
    accept-state configuration; the model's semantics written out anew."""
    nodes = tuple(g.targetnode if i == jag.t else g.startnode
                  for i in range(1, jag.num_pebbles + 1))
    init = (jag.start_state, nodes)
    seen = {init}
    todo = [init]
    while todo:
        state, nodes = todo.pop()
        if state == jag.accept_state:
            continue
        first: dict = {}
        pi = tuple(first.setdefault(v, i) for i, v in enumerate(nodes, start=1))
        for nxt, moves in jag.transitions(state, pi):
            placed = tuple(g.rho[nodes[i]][mv - 1] if mv > 0 else nodes[-mv - 1]
                           for i, mv in enumerate(moves))
            cfg = (nxt, placed)
            if cfg not in seen:
                seen.add(cfg)
                todo.append(cfg)
    return len(seen)


def oracle(jag: NdJag, g: LabelledGraph,
           tree_nodes: int = ORACLE_TREE_NODES) -> Expected | None:
    """Exact expectation for ``jag`` on ``g``, or None when the run tree is
    too big to exhaust."""
    max_len = g.num_nodes * _pre_accept_configs(jag, g)
    try:
        runs = enumerate_runs(jag, g, max_len=max_len, max_tree_nodes=tree_nodes)
    except ResourceLimitExceeded:
        return None
    orders = frozenset(replay_curr_visits(jag, g, trace) for trace in runs)
    reach = reachable_set(g, g.startnode)
    traversable = bool(orders) and all(reach <= set(o) for o in orders)
    return Expected(bool(orders), traversable, traversable and len(orders) == 1,
                    orders)


def check(report, expected: Expected | None) -> str | None:
    """Gate for one ``verify`` report; returns why it is wrong, or None.

    An exception or a resource-limit verdict is always wrong: every instance
    has at most 4 * 6**3 configurations.  Without an oracle answer only that
    much is checked.
    """
    if isinstance(report, Exception):
        return f"raised {type(report).__name__}: {report}"
    if report.verdict is Verdict.RESOURCE_LIMIT:
        return "unexpected resource limit"
    if expected is None:
        return None
    if (report.verdict is Verdict.ACCEPT) != expected.accepts:
        return f"verdict {report.verdict.value}, oracle accepts={expected.accepts}"
    if bool(report.traversable) != expected.traversable:
        return f"traversable {report.traversable}, oracle {expected.traversable}"
    if bool(report.orderable) != expected.orderable:
        return f"orderable {report.orderable}, oracle {expected.orderable}"
    if expected.accepts and tuple(report.visit_order or ()) not in expected.orders:
        return f"visit order {report.visit_order} is no accepting run's"
    return None
