"""Randomized agreement checks between the reachability decision procedure
and the run-enumeration oracle.

Generates seeded random automata and random small graphs, then compares the
verdict of ``accepts`` (configuration-graph reachability) with the verdict
implied by ``enumerate_runs`` (exhaustive run-tree search, no visited set).
Instances whose run tree is too bushy to enumerate are discarded rather
than silently truncated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ResourceLimitExceeded
from .graph import LabelledGraph
from .machine import (Limits, NdJag, Verdict, accepts, all_partitions,
                      build_config_graph, enumerate_runs)


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
    partitions = list(all_partitions(p))
    for state in states:  # the accept state too: runs continue past it
        for pi in partitions:
            outs = []
            for _ in range(rng.randint(0, 2)):
                nxt = rng.choice(states)
                moves = tuple(
                    rng.randint(1, degree) if rng.random() < 0.5
                    else -rng.randint(1, p)
                    for _ in range(p))
                outs.append((nxt, moves))
            if outs:
                rules[(state, pi)] = tuple(outs)
    return NdJag(states[0], accept, p, s=1, t=2,
                 curr=3 if p >= 3 else None, delta=rules, states=tuple(states))


@dataclass(frozen=True)
class SpotcheckResult:
    pairs: int
    agreements: int
    discarded: int

    @property
    def ok(self) -> bool:
        return self.agreements == self.pairs


def run_spotcheck(pairs: int = 50, seed: int = 0,
                  max_configs: int = 10_000,
                  max_tree_nodes: int = 400_000) -> SpotcheckResult:
    """Compare verdicts on ``pairs`` random (automaton, graph) instances.

    Each kept instance has at most ``max_configs`` reachable configurations
    and a run tree the oracle can exhaust.  Returns the agreement tally.
    """
    rng = random.Random(seed)
    kept = agreements = discarded = 0
    while kept < pairs:
        g = random_graph(rng)
        jag = random_jag(rng, g.degree)
        cg = build_config_graph(jag, g, Limits(max_configs=max_configs))
        if cg.limit_hit:
            discarded += 1
            continue
        verdict = accepts(jag, g, config_graph=cg)
        try:
            # the shortest accepting run is shorter than the config count
            runs = enumerate_runs(jag, g, max_len=cg.configs_explored,
                                  max_tree_nodes=max_tree_nodes)
        except ResourceLimitExceeded:
            discarded += 1
            continue
        oracle = Verdict.ACCEPT if runs else Verdict.REJECT
        kept += 1
        if oracle is verdict:
            agreements += 1
    return SpotcheckResult(kept, agreements, discarded)
