"""Workloads, correctness gate and metrics of the jaglab benchmark.

Each workload is a closed loop with one caller in this single-threaded
process: the next verdict is asked for only when the previous one is back.
The calls are the ones ``jaglab verify``, ``connect`` and ``run`` make, made
in-process so that interpreter start-up stays out of the numbers.  Only the
API that outlives the planned engine changes is used: no ``workers=``, only
``max_configs`` would be set in ``Limits`` (the defaults suffice here), and
of a report only ``verdict``, ``traversable``, ``orderable`` and
``visit_order`` are read.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from jaglab import algorithms as alg
from jaglab.families import parse_family
from jaglab.graph import (LabelledGraph, disjoint_union, parse_graph,
                          reachable_set, serialize_graph)
from jaglab.lang import compile_program, interpret
from jaglab.machine import (Verdict, build_config_graph, check_orderable,
                            check_traversable, decide_co_st_connectivity,
                            verify)

import pace
import randjag
from spans import Tracer


@dataclass(frozen=True)
class Rung:
    name: str
    spec: str
    program: str  # "grid-traverse" or "tower"


RUNGS = (
    Rung("grid-2x5", "grid:d=2,l=5", "grid-traverse"),
    Rung("grid-3x3", "grid:d=3,l=3", "grid-traverse"),
    Rung("sym-4", "sym:n=4", "tower"),
    Rung("abelian-8x8", "abelian:mod=8,8", "tower"),
    Rung("wreath-2x3", "wreath(grid:d=1,l=2, grid:d=1,l=3)", "tower"),
    # interpret only: verify on sym:n=5 takes about a minute until
    # traversability is decided in one pass over the configuration graph
    Rung("sym-5", "sym:n=5", "tower"),
)

# set-up repeats at least SETUP_MIN times and until it has taken
# SETUP_BUDGET_S seconds, at most SETUP_MAX times; its median is setup_s
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 50, 1.0


@dataclass
class Case:
    """One call the timed loop makes, with what the gate expects of it."""

    rung: str
    label: str
    graph: LabelledGraph
    expected: object
    jag: object = None   # compiled automaton (verify, connect)
    prog: object = None  # pebble program (run)


def _timed(tracer, name, label, fn, *args):
    if tracer is None:
        return fn(*args)
    with tracer.span(name, label):
        return fn(*args)


def _program(rung: Rung, family, g):
    if rung.program == "grid-traverse":
        return alg.grid_traversal_program(g.degree)
    return alg.tower_program(family.tower)


def ladder_cases(workload: str, seed: int, tracer: Tracer | None = None) -> list[Case]:
    """Build the inputs the CLI would: family, tower check, program, the
    graph-file round trip and, except for ``run``, the compiled automaton."""
    rng = random.Random(seed)
    rungs = RUNGS if workload == "run-ladder" else RUNGS[:-1]
    cases = []
    for rung in rungs:
        r = rung.name
        family = _timed(tracer, "families.parse_family", r, parse_family, rung.spec)
        order = tuple(_timed(tracer, "algorithms.check_tower", r,
                             alg.check_tower, family.graph, family.tower))
        text = _timed(tracer, "graph.serialize_graph", r, serialize_graph,
                      family.graph)
        g = _timed(tracer, "graph.parse_graph", r, parse_graph, text)
        prog = _timed(tracer, "algorithms.program", r, _program, rung, family, g)
        if workload == "run-ladder":
            cases.append(Case(r, r, g, order, prog=prog))
            continue
        jag = _timed(tracer, "lang.compile_program", r, compile_program,
                     prog, g.degree)
        if workload == "verify-ladder":
            cases.append(Case(r, r, g, order, jag=jag))
            continue
        # connected: a seeded targetnode in the startnode's component, set
        # the way ``--target`` sets it; disconnected: two copies side by side
        component = sorted(reachable_set(g, g.startnode) - {g.startnode})
        joined = LabelledGraph(g.num_nodes, g.degree, g.rho, g.startnode,
                               rng.choice(component))
        text = _timed(tracer, "graph.serialize_graph", r, serialize_graph,
                      disjoint_union(g, g))
        apart = _timed(tracer, "graph.parse_graph", r, parse_graph, text)
        for label, graph in ((r + "/connected", joined), (r + "/disconnected", apart)):
            reach = reachable_set(graph, graph.startnode)
            expected = "connected" if graph.targetnode in reach else "disconnected"
            cases.append(Case(r, label, graph, expected, jag=jag))
    return cases


def random_cases(seed: int) -> list[Case]:
    return [Case("random", inst.label, inst.graph, None, jag=inst.jag)
            for inst in randjag.generate(seed)]


def make_cases(workload: str, seed: int, tracer: Tracer | None = None) -> list[Case]:
    if workload == "verify-random":
        return random_cases(seed)
    return ladder_cases(workload, seed, tracer)


# ---------------------------------------------------------------------------
# The calls under test and the gate

def decide(workload: str, case: Case):
    """The one call a user waits for on this workload."""
    if workload == "connect-ladder":
        return decide_co_st_connectivity(case.jag, case.graph)
    if workload == "run-ladder":
        return interpret(case.prog, case.graph)
    return verify(case.jag, case.graph)


def check_order_verdict(result, expected_order) -> str | None:
    """Gate for a ladder ``verify`` report or ``interpret`` result: accept,
    traversable and orderable where reported, in the tower's order."""
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    if result.verdict is not Verdict.ACCEPT:
        return f"verdict {result.verdict.value}"
    for flag in ("traversable", "orderable"):
        if getattr(result, flag, True) is not True:
            return f"{flag} {getattr(result, flag)}"
    if tuple(result.visit_order or ()) != tuple(expected_order):
        return "visit order differs from the tower order"
    return None


def check_connect(result, expected: str) -> str | None:
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    if result != expected:
        return f"{result}, reachability says {expected}"
    return None


def check(workload: str, case: Case, result) -> str | None:
    if workload == "verify-random":
        return randjag.check(result, case.expected)
    if workload == "connect-ladder":
        return check_connect(result, case.expected)
    return check_order_verdict(result, case.expected)


def attach_oracle(cases: list[Case]) -> int:
    """Fill in the oracle's answer for random cases; returns how many the
    oracle could not exhaust."""
    unchecked = 0
    for case in cases:
        case.expected = randjag.oracle(case.jag, case.graph)
        unchecked += case.expected is None
    return unchecked


# ---------------------------------------------------------------------------
# Passes

@dataclass
class PassResult:
    wall: float                # seconds the pass took, pace readings included
    verdict_s: list            # per case, in case order, at the nominal pace
    failures: list             # (case label, why) for each wrong verdict


def untraced_pass(workload: str, cases: list[Case]) -> PassResult:
    raw = []
    results = []
    start = perf_counter()
    gauge = pace.Gauge()
    for case in cases:
        t0 = perf_counter()
        try:
            result = decide(workload, case)
        except Exception as exc:  # a crash is a failed verdict, not a crashed run
            result = exc
        raw.append(perf_counter() - t0)
        results.append(result)
        gauge.tick(len(raw))
    verdict_s = [t * k for t, k in zip(raw, gauge.scales(len(raw)))]
    wall = perf_counter() - start
    failures = [(case.label, why) for case, result in zip(cases, results)
                if (why := check(workload, case, result)) is not None]
    return PassResult(wall, verdict_s, failures)


def _graph_counts(cg, accept_state) -> dict:
    """Configurations, successor edges, edges into an already-seen
    configuration, and configurations reachable only through acceptance."""
    configs = len(cg.adj)
    edges = 0
    targets = set()
    for succs in cg.adj.values():
        edges += len(succs)
        targets.update(succs)
    targets.discard(cg.initial)
    before = {cg.initial}
    todo = [cg.initial]
    while todo:
        config = todo.pop()
        if config.state == accept_state:
            continue
        for s in cg.adj.get(config, ()):
            if s not in before:
                before.add(s)
                todo.append(s)
    return {"configs": configs, "edges": edges,
            "dup_edges": edges - len(targets),
            "past_accept": configs - len(before)}


def _traced_case(workload: str, case: Case, tracer: Tracer) -> None:
    """The calls ``decide`` makes, one span per layer call, in the order the
    public entry point makes them."""
    label = case.label
    with tracer.span("instance", label):
        if workload == "run-ladder":
            with tracer.span("lang.interpret", label) as sp:
                result = interpret(case.prog, case.graph)
            sp.attrs = {"configs": result.configs_explored}
            return
        with tracer.span("machine.build_config_graph", label) as build:
            cg = build_config_graph(case.jag, case.graph)
        if workload == "connect-ladder":
            with tracer.span("machine.decide_co_st_connectivity", label):
                decide_co_st_connectivity(case.jag, case.graph, config_graph=cg)
        else:
            with tracer.span("machine.check_traversable", label):
                trav, _ = check_traversable(case.jag, case.graph, config_graph=cg)
            if trav:
                with tracer.span("machine.check_orderable", label):
                    check_orderable(case.jag, case.graph, config_graph=cg)
    build.attrs = _graph_counts(cg, case.jag.accept_state)


def traced_pass(workload: str, cases: list[Case], tracer: Tracer):
    """Returns the pass span and the number of cases that raised."""
    raised = 0
    firsts = []
    with tracer.span("pass") as root:
        gauge = pace.Gauge()
        for case in cases:
            firsts.append(len(tracer.spans))
            try:
                _traced_case(workload, case, tracer)
            except Exception:  # counted as a failed verdict
                raised += 1
            gauge.tick(len(firsts))
        ends = firsts[1:] + [len(tracer.spans)]
        for first, end, k in zip(firsts, ends, gauge.scales(len(firsts))):
            for sp in tracer.spans[first:end]:
                sp.scale = k
    return root, raised


# ---------------------------------------------------------------------------
# Metrics

def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Run:
    workload: str
    setup_s: list = field(default_factory=list)
    passes: list = field(default_factory=list)       # untraced PassResults
    traced: list = field(default_factory=list)       # pass spans
    setup_spans: list = field(default_factory=list)  # setup spans (traced)
    traced_raised: int = 0
    oracle_unchecked: int = 0
    cases: list = field(default_factory=list)


def measure(workload: str, seed: int, seconds: float,
            tracer: Tracer | None) -> Run:
    """Set up repeatedly (see ``SETUP_MIN``), then run passes for ``seconds``.

    Passes repeat while the next one, at the median pass time so far, still
    ends within ``seconds``; at least one runs.  With a tracer, untraced and
    traced passes alternate, starting untraced.
    """
    run = Run(workload)
    spent = 0.0
    while len(run.setup_s) < SETUP_MIN or (
            spent < SETUP_BUDGET_S and len(run.setup_s) < SETUP_MAX):
        gc.collect()
        gauge = pace.Gauge()
        first = len(tracer.spans) if tracer else 0
        t0 = perf_counter()
        if tracer is None:
            run.cases = make_cases(workload, seed)
        else:
            with tracer.span("setup") as sp:
                run.cases = make_cases(workload, seed, tracer)
            run.setup_spans.append(sp)
        took = perf_counter() - t0
        spent += took
        (k,) = gauge.scales(1)
        run.setup_s.append(took * k)
        for sp in tracer.spans[first:] if tracer else ():
            sp.scale = k
    if workload == "verify-random":
        run.oracle_unchecked = attach_oracle(run.cases)
    elapsed = 0.0
    pass_s: list = []
    while not pass_s or elapsed + statistics.median(pass_s) <= seconds:
        gc.collect()
        traced_turn = tracer is not None and len(run.passes) > len(run.traced)
        if traced_turn:
            root, raised = traced_pass(workload, run.cases, tracer)
            run.traced.append(root)
            run.traced_raised += raised
            took = root.duration
        else:
            result = untraced_pass(workload, run.cases)
            run.passes.append(result)
            took = result.wall
        pass_s.append(took)
        elapsed += took
    if tracer is not None and not run.traced:
        root, raised = traced_pass(workload, run.cases, tracer)
        run.traced.append(root)
        run.traced_raised += raised
    return run


def case_times(run: Run) -> list:
    """Each case's median paced verdict time over the untraced passes."""
    return [statistics.median(col) for col in zip(*(p.verdict_s for p in run.passes))]


def end_to_end(run: Run) -> dict:
    times = case_times(run)
    return {
        "wall_s": (sum(times), "s"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "verdict_us.p50": (percentile(times, 50) * 1e6, "us"),
        "verdict_us.p99": (percentile(times, 99) * 1e6, "us"),
    }


LAYER_TIMES = {
    "machine.build_s": "machine.build_config_graph",
    "machine.trav_s": "machine.check_traversable",
    "machine.ord_s": "machine.check_orderable",
    "machine.cost_s": "machine.decide_co_st_connectivity",
    "lang.interpret_s": "lang.interpret",
}
SETUP_TIMES = {
    "families.parse_family_s": "families.parse_family",
    "algorithms.check_tower_s": "algorithms.check_tower",
    "algorithms.program_s": "algorithms.program",
    "graph.serialize_graph_s": "graph.serialize_graph",
    "graph.parse_graph_s": "graph.parse_graph",
    "lang.compile_s": "lang.compile_program",
}


def _median_by_name(per_pass: list) -> dict:
    """Sum per span name of each instance's median over the passes, from one
    ``{(instance, name): seconds}`` dict per pass."""
    samples: dict = defaultdict(list)
    for times in per_pass:
        for key, value in times.items():
            samples[key].append(value)
    out: dict = defaultdict(float)
    for (_, name), values in samples.items():
        out[name] += statistics.median(values)
    return out


def per_layer(run: Run, tracer: Tracer) -> dict:
    """Layer self times as each instance's median over the traced passes
    (the set-up layers: median over the set-up repeats), counts from one
    pass."""
    kids = tracer.children()
    layer = _median_by_name([tracer.self_times(root, kids) for root in run.traced])
    setups = [defaultdict(float) for _ in run.setup_spans]
    for total, root in zip(setups, run.setup_spans):
        for (_, name), value in tracer.self_times(root, kids).items():
            total[name] += value
    out = {}
    for metric, span in LAYER_TIMES.items():
        out[metric] = (layer.get(span, 0.0), "s")
    for metric, span in SETUP_TIMES.items():
        out[metric] = (statistics.median(t.get(span, 0.0) for t in setups), "s")

    counts = tracer.attr_sums(run.traced[0], kids)
    configs = counts.get("machine.build_config_graph.configs", 0)
    edges = counts.get("machine.build_config_graph.edges", 0)
    build_s = out["machine.build_s"][0]
    out["machine.build_configs"] = (configs, "count")
    out["machine.build_edges"] = (edges, "count")
    out["machine.build_configs_per_s"] = (configs / build_s if build_s else 0.0, "1/s")
    out["machine.build_dup_frac"] = (
        counts.get("machine.build_config_graph.dup_edges", 0) / edges if edges else 0.0,
        "ratio")
    out["machine.build_past_accept_frac"] = (
        counts.get("machine.build_config_graph.past_accept", 0) / configs
        if configs else 0.0, "ratio")
    out["lang.interpret_configs"] = (counts.get("lang.interpret.configs", 0), "count")

    # traced against untraced, both summed over instances as in case_times
    traced = _median_by_name([{(sp.instance, sp.name): sp.paced
                             for sp in kids[root.sid]} for root in run.traced])
    times = case_times(run)
    out["trace.overhead_frac"] = (traced["instance"] / sum(times) - 1.0, "ratio")
    out["gate.oracle_unchecked"] = (run.oracle_unchecked, "count")
    for rung in RUNGS:
        out[f"rung_s.{rung.name}"] = (
            sum(t for t, c in zip(times, run.cases) if c.rung == rung.name), "s")
    return out


def failures(run: Run) -> tuple[int, int, list]:
    """(attempted, failed, first few reasons) over every verdict asked for."""
    attempted = sum(len(p.verdict_s) for p in run.passes)
    attempted += len(run.traced) * len(run.cases)
    reasons = [f for p in run.passes for f in p.failures]
    failed = len(reasons) + run.traced_raised
    return attempted, failed, reasons[:5]
