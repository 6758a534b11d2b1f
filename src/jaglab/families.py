"""The family specification mini-language used by the CLI.

Specs are parsed recursively:

    grid:d=2,l=3
    abelian:mod=4,2;gens=(1,0)(0,1)
    sym:n=4
    gl:n=2,p=3
    wreath(A,B)
    direct(A,B)

A parsed family yields its group, generator list, Cayley graph, and (when
one exists) the canonical digit tower used to generate ordering programs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import algorithms as alg
from . import groups
from .errors import InputError
from .groups import CayleyGraph, cayley_graph

_TUPLE = re.compile(r"\(([^()]*)\)")
_GENS = re.compile(r"(\s*\([^()]*\))+\s*")


@dataclass(frozen=True)
class Family:
    kind: str
    name: str
    group: groups.FiniteGroup
    gens: tuple
    cayley: CayleyGraph
    tower: alg.CanonicalTower | None
    wreath: groups.WreathStructure | None = None

    @property
    def graph(self):
        return self.cayley.graph


_KINDS = ("grid", "abelian", "sym", "gl", "wreath", "direct")


def _split_args(body: str) -> list[str]:
    """Split combinator arguments on top-level commas.  Sub-specs contain
    commas of their own, so only a comma followed by a family keyword
    separates arguments."""
    pieces, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError("unbalanced parentheses in family spec")
        if ch == "," and depth == 0:
            pieces.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise InputError("unbalanced parentheses in family spec")
    pieces.append("".join(cur))
    args: list[str] = []
    for piece in pieces:
        if args and not piece.strip().startswith(_KINDS):
            args[-1] += "," + piece
        else:
            args.append(piece)
    return args


def _params(body: str, keys: tuple, optional: tuple = (), sep: str = ",") -> dict:
    """Split ``key=value`` items; every one of ``keys`` is required, the
    ``optional`` ones may appear, and no other key may."""
    out = {}
    for item in body.split(sep):
        item = item.strip()
        if not item:
            continue
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq:
            raise InputError(f"expected key=value in family spec, got {item!r}")
        if key not in keys + optional or key in out:
            raise InputError(f"unknown or repeated family parameter {key!r}")
        out[key] = val.strip()
    for key in keys:
        if key not in out:
            raise InputError(f"family spec needs {key}=...")
    return out


def _int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"family parameter {key} must be an integer, "
                         f"got {text!r}") from None


def parse_family(spec: str) -> Family:
    spec = spec.strip()
    m = re.match(r"^(grid|abelian|sym|gl|wreath|direct)\b", spec)
    if not m:
        raise InputError(f"unknown family in {spec!r}")
    kind = m.group(1)
    rest = spec[len(kind):]

    if kind in ("wreath", "direct"):
        if not (rest.startswith("(") and rest.endswith(")")):
            raise InputError(f"{kind} needs parenthesized arguments")
        args = _split_args(rest[1:-1])
        if len(args) != 2:
            raise InputError(f"{kind} takes exactly two family arguments")
        left = parse_family(args[0])
        right = parse_family(args[1])
        if kind == "direct":
            group, gens = groups.direct_product(left.group, left.gens,
                                                right.group, right.gens)
            tower = None
            if left.tower is not None and right.tower is not None:
                tower = alg.direct_tower(left.tower, right.tower,
                                         len(left.gens))
            cay = cayley_graph(group, gens)
            return Family(kind, f"direct({left.name},{right.name})", group,
                          gens, cay, tower)
        ws = groups.wreath_structure(left.group, left.gens,
                                     right.group, right.gens)
        tower = None
        if left.tower is not None and right.tower is not None:
            tower = alg.wreath_tower(ws, left.tower, right.tower)
        cay = cayley_graph(ws.group, ws.gens)
        return Family(kind, f"wreath({left.name},{right.name})", ws.group,
                      ws.gens, cay, tower, wreath=ws)

    if not rest.startswith(":"):
        raise InputError(f"{kind} needs ':' parameters")
    body = rest[1:]

    if kind == "grid":
        p = _params(body, ("d", "l"))
        group, gens = groups.grid_group(_int(p["d"], "d"), _int(p["l"], "l"))
        cay = cayley_graph(group, gens)
        return Family(kind, spec, group, gens, cay, alg.abelian_tower(cay))

    if kind == "abelian":
        parts = _params(body, ("mod",), ("gens",), sep=";")
        moduli = tuple(_int(x, "mod") for x in parts["mod"].split(","))
        gens_arg = None
        if "gens" in parts:
            if not _GENS.fullmatch(parts["gens"]):
                raise InputError("gens must be tuples like (1,0)(0,1)")
            tuples = _TUPLE.findall(parts["gens"])
            gens_arg = [tuple(_int(x, "gens") for x in t.split(","))
                        for t in tuples]
        group, gens = groups.abelian_group(moduli, gens_arg)
        cay = cayley_graph(group, gens)
        return Family(kind, spec, group, gens, cay, alg.abelian_tower(cay))

    if kind == "sym":
        p = _params(body, ("n",))
        n = _int(p["n"], "n")
        group, gens = groups.symmetric_group(n)
        cay = cayley_graph(group, gens)
        return Family(kind, spec, group, gens, cay, alg.symmetric_tower(n))

    if kind == "gl":
        p = _params(body, ("n", "p"))
        group, gens = groups.gl_group(_int(p["n"], "n"), _int(p["p"], "p"))
        cay = cayley_graph(group, gens)
        return Family(kind, spec, group, gens, cay, None)

    raise AssertionError(kind)  # pragma: no cover


def max_generator_order(family: Family) -> int:
    return max(groups.element_order(family.group, g) for g in family.gens)
