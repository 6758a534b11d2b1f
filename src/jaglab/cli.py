"""Command-line entry point.

Subcommands: gen, run, verify, connect, oracle, wreath-count, spotcheck.
Exit codes are the machine-readable verdict channel: 0 accept/connected,
1 reject/disconnected, 2 resource limit or cap exceeded, 3 input error
(command-line usage errors included).
All output is line-oriented plain text with stable keys.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import algorithms as alg
from .errors import (CapExceeded, DiagnosticError, InputError,
                     ResourceLimitExceeded)
from .families import Family, max_generator_order, parse_family
from .graph import (is_undirected, parse_graph, reachable_set, reduce_degree,
                    serialize_graph, validate_components)
from .lang import compile_program, parse_program
from .machine import Limits, Verdict, decide_co_st_connectivity, run, \
    verify as machine_verify
from .spotcheck import run_spotcheck

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_LIMIT = 2
EXIT_INPUT = 3

# builtin tower programs -> the family kinds each expects; None: any family
# with a tower.  grid-traverse, the other builtin, needs no family.
_TOWER_PROGRAMS = {"abelian-order": ("abelian", "grid"), "sym-order": ("sym",),
                   "product-order": ("direct",), "canon-order": None,
                   "co-st-conn": None}


def _limits(args) -> Limits:
    return Limits(max_configs=args.limits_configs, max_run_len=args.max_run_len)


def _apply_graph_flags(g, args):
    """Apply ``--target`` and ``--degree-reduce`` to a graph; the result
    must still keep the input convention of a graph file."""
    if args.target is not None:
        if not 0 <= args.target < g.num_nodes:
            raise InputError(f"--target {args.target} out of range")
        g = type(g)(g.num_nodes, g.degree, g.rho, g.startnode, args.target)
    if args.degree_reduce:
        g = reduce_degree(g)
    validate_components(g)
    return g


def _load_graph(args):
    if args.graph is None:
        raise InputError(f"oracle {args.kind} needs a graph file")
    path = Path(args.graph)
    if not path.is_file():
        raise InputError(f"no such graph file: {path}")
    return _apply_graph_flags(parse_graph(path.read_text()), args)


def _family(args) -> Family:
    if not getattr(args, "family", None):
        raise InputError("this program name needs --family <spec>")
    return parse_family(args.family)


def _resolve_program(args, g):
    """A program argument is a pebble-source path or a builtin name."""
    name = args.program
    if name == "grid-traverse":
        return alg.grid_traversal_program(g.degree)
    if name in _TOWER_PROGRAMS:
        family = _family(args)
        if family.tower is None:
            raise InputError(f"family {family.name} has no canonical ordering")
        kinds = _TOWER_PROGRAMS[name]
        if kinds is not None and family.kind not in kinds:
            raise InputError(f"{name} expects a {'/'.join(kinds)} family")
        alg.check_tower(family.graph, family.tower)
        return alg.tower_program(family.tower)
    path = Path(name)
    if not path.is_file():
        raise InputError(f"no such program: {name!r} (builtins: grid-traverse, "
                         f"{', '.join(_TOWER_PROGRAMS)})")
    return parse_program(path.read_text())


def cmd_gen(args) -> int:
    g = _apply_graph_flags(parse_family(args.family_spec).graph, args)
    text = serialize_graph(g)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return EXIT_ACCEPT


def cmd_run(args) -> int:
    g = _load_graph(args)
    prog = _resolve_program(args, g)
    searched = compile_program(prog, g.degree) if args.compiled else prog
    if args.program == "co-st-conn":
        return _connect(args, g, searched)
    result = run(searched.space(g), _limits(args))
    print(f"verdict: {result.verdict.value}")
    if result.verdict is Verdict.RESOURCE_LIMIT:
        return EXIT_LIMIT
    if result.verdict is Verdict.REJECT:
        return EXIT_REJECT
    for v in result.visit_order or ():
        print(v)
    return EXIT_ACCEPT


def cmd_verify(args) -> int:
    g = _load_graph(args)
    prog = _resolve_program(args, g)
    report = machine_verify(prog, g, _limits(args))
    sys.stdout.write(report.to_text())
    if report.verdict is Verdict.RESOURCE_LIMIT:
        return EXIT_LIMIT
    return EXIT_ACCEPT if report.verdict is Verdict.ACCEPT else EXIT_REJECT


def _connect(args, g, prog) -> int:
    verdict = decide_co_st_connectivity(prog, g, _limits(args))
    print(verdict)
    return EXIT_ACCEPT if verdict == "connected" else EXIT_REJECT


def cmd_connect(args) -> int:
    g = _load_graph(args)
    prog = _resolve_program(args, g)
    return _connect(args, g, prog)


def cmd_oracle(args) -> int:
    kind = args.kind
    if kind == "reach":
        g = _load_graph(args)
        nodes = sorted(reachable_set(g, g.startnode))
        for v in nodes:
            print(v)
        verdict = "connected" if g.targetnode in nodes else "disconnected"
        print(f"connectivity: {verdict}")
        return EXIT_ACCEPT
    if kind == "undirected":
        g = _load_graph(args)
        bound = args.bound
        if bound is None:
            if args.family:
                bound = max(max_generator_order(parse_family(args.family)) - 1, 1)
            else:
                bound = max(g.num_nodes - 1, 1)
        print("true" if is_undirected(g, bound) else "false")
        return EXIT_ACCEPT
    # family-based oracles
    family = _family(args)
    if kind == "canon":
        if family.tower is None:
            raise InputError(f"family {family.name} has no canonical tower")
        order = alg.check_tower(family.graph, family.tower)
        for digits, node in zip(alg.digit_tuples(family.tower.bounds), order):
            print(f"{','.join(map(str, digits))}\t{node}")
        return EXIT_ACCEPT
    if kind == "evals":
        es = alg.abelian_e_values(family.group, family.gens)
        print(" ".join(map(str, es)))
        return EXIT_ACCEPT
    if kind == "order":
        if family.tower is None:
            raise InputError(f"family {family.name} has no canonical tower")
        for node in alg.check_tower(family.graph, family.tower):
            print(node)
        return EXIT_ACCEPT
    if kind == "maxorder":
        idx, e = alg.max_order_generator(family.group, family.gens)
        print(f"generator: {idx}")
        print(f"order: {e}")
        print(f"capacity: {alg.counting_capacity(e, args.pebbles)}")
        return EXIT_ACCEPT
    raise InputError(f"unknown oracle kind {kind!r}")


def cmd_wreath_count(args) -> int:
    family = _family(args)
    if family.wreath is None:
        raise InputError("wreath-count needs a wreath family")
    ws = family.wreath
    x = alg.wreath_zero(ws)
    print("count: 0")
    for k in range(1, ws.H.order + 1):
        y = alg.wreath_increment(ws, x)
        if not alg.wreath_successor(ws, x, y):
            raise DiagnosticError(f"step {k} of the count is not a wreath "
                                  "successor")
        x = y
        print(f"count: {alg.wreath_value(ws, x)}")
    try:
        alg.wreath_increment(ws, x)
        print("overflow: false")
        return EXIT_REJECT
    except OverflowError:
        print("overflow: true")
    return EXIT_ACCEPT


def cmd_spotcheck(args) -> int:
    result = run_spotcheck(pairs=args.pairs, seed=args.seed,
                           max_configs=args.limits_configs)
    print(f"pairs: {result.pairs}")
    print(f"agreements: {result.agreements}")
    print(f"discarded: {result.discarded}")
    if result.reason:
        print(f"FAILED {result.reason}")
    return EXIT_ACCEPT if result.ok else EXIT_REJECT


def _count(text: str) -> int:
    """Type of a count option: a non-negative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error (exit 3); exit 2 is a resource limit."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_common(p):
    p.add_argument("graph", help="graph file")
    p.add_argument("--family", help="family spec for builtin program names")
    p.add_argument("--limits-configs", type=_count, default=10_000_000,
                   help="configuration budget")
    p.add_argument("--max-run-len", type=_count, default=None)
    p.add_argument("--degree-reduce", action="store_true",
                   help="apply the degree-3 reduction to the input graph")
    p.add_argument("--target", type=int, default=None,
                   help="override the targetnode id")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="jaglab")
    sub = ap.add_subparsers(dest="command", required=True)  # parsers are _Parser too

    p = sub.add_parser("gen", help="emit a graph file for a family spec")
    p.add_argument("family_spec")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--degree-reduce", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("run", help="interpret a program on a graph")
    p.add_argument("program", help="pebble source file or builtin name")
    _add_common(p)
    p.add_argument("--compiled", action="store_true",
                   help="search the compiled automaton's configurations "
                        "instead of the program's own")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify", help="traversability/orderability report")
    p.add_argument("program")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("connect", help="decide co-st-connectivity")
    p.add_argument("program")
    _add_common(p)
    p.set_defaults(fn=cmd_connect)

    p = sub.add_parser("oracle", help="ground-truth oracles for diffing")
    p.add_argument("kind", choices=["reach", "canon", "evals", "order",
                                    "undirected", "maxorder"])
    p.add_argument("graph", nargs="?", help="graph file (reach/undirected)")
    p.add_argument("--family")
    p.add_argument("--bound", type=int, default=None,
                   help="reversal bound for the undirected check")
    p.add_argument("--pebbles", type=_count, default=1,
                   help="counting pebbles for the maxorder capacity")
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--degree-reduce", action="store_true")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("wreath-count", help="demonstrate counting to |H|")
    p.add_argument("--family", required=True)
    p.set_defaults(fn=cmd_wreath_count)

    p = sub.add_parser("spotcheck",
                       help="every decider against run enumeration, randomized")
    p.add_argument("--pairs", type=_count, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limits-configs", type=_count, default=10_000)
    p.set_defaults(fn=cmd_spotcheck)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError,) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CapExceeded, ResourceLimitExceeded) as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except DiagnosticError as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
