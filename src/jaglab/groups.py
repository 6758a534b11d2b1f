"""Finite groups as first-class values, group families, and Cayley graphs.

A group is whatever its generators reach from the identity: its elements
are the sorted closure of the identity under left multiplication by the
generators, and that sorted order is the node numbering of its Cayley
graphs.  Each family checks that closure against the order it expects;
everything here is desk-scale, guarded by a configurable cap.
Permutations multiply left-to-right in the standard sense: ``(a*b)(x) =
a(b(x))``, i.e. the right factor acts first.  Cayley edges use left
multiplication: the edge labelled i maps v to gens[i-1] * v.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import CapExceeded, InputError
from .graph import LabelledGraph, closure

DEFAULT_CAP = 10 ** 6


def size_cap() -> int:
    """Element cap for group constructions; JAGLAB_CAP overrides the default."""
    raw = os.environ.get("JAGLAB_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"JAGLAB_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InputError("JAGLAB_CAP must be positive")
    return cap


def _check_cap(size: int, what: str) -> None:
    cap = size_cap()
    if size > cap:
        raise CapExceeded(f"{what} has {size} elements, cap is {cap}")


class FiniteGroup:
    """The group generated by ``gens`` under multiply/inverse oracles.

    ``elements`` is the sorted closure of the identity under left
    multiplication by ``gens``; ``index`` maps each element to its position.
    The closure records each product by its number, not as an element, and
    those records become the rows of the Cayley graph on ``gens``, so
    ``cayley_graph`` need not multiply again.
    """

    def __init__(self, name: str, identity, multiply: Callable,
                 inverse: Callable, gens: Sequence):
        self.name = name
        self.identity = identity
        self.multiply = multiply
        self.inverse = inverse
        self._gens = gens = tuple(gens)
        k = len(gens)
        # breadth-first closure: index numbers the elements in the order
        # found; products[n*k + i] is the number of gens[i] * found[n]
        index = {identity: 0}
        found = [identity]
        products = []
        for x in found:  # the queue grows while it is read
            for g in gens:
                y = multiply(g, x)
                n = index.setdefault(y, len(found))
                if n == len(found):
                    found.append(y)
                products.append(n)
        self.elements = elements = tuple(sorted(found))
        del found
        # renumber from order found to sorted position
        old = [index[e] for e in elements]
        pos = [0] * len(elements)
        for v, e in enumerate(elements):
            pos[old[v]] = index[e] = v
        self.index = index
        # _rows[v][i]: the index of gens[i] * elements[v]
        self._rows = tuple(tuple([pos[n] for n in products[o * k:o * k + k]])
                           for o in old)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def _expect_order(group: FiniteGroup, size: int) -> None:
    if group.order != size:
        raise InputError(f"{group.name}: given generators do not generate the group")


def element_order(group: FiniteGroup, x) -> int:
    """Least t >= 1 with x^t = identity."""
    t = 1
    y = x
    while y != group.identity:
        y = group.multiply(x, y)
        t += 1
        if t > group.order:
            raise InputError(f"{group.name}: {x!r} has no finite order in domain")
    return t


def subgroup_closure(group: FiniteGroup, xs: Sequence) -> frozenset:
    """The subgroup generated by ``xs``: in a finite group, the closure of
    the identity under multiplication alone."""
    mul = group.multiply
    return frozenset(closure(group.identity, lambda a: [mul(g, a) for g in xs]))


def power(group: FiniteGroup, x, n: int):
    y = group.identity
    for _ in range(n):
        y = group.multiply(x, y)
    return y


@dataclass(frozen=True)
class CayleyGraph:
    """A Cayley graph together with its element <-> node-id mapping."""

    graph: LabelledGraph
    group: FiniteGroup
    gens: tuple
    node_of: dict

    @property
    def elements(self) -> tuple:
        return self.group.elements

    def element_at(self, node: int):
        return self.group.elements[node]


def cayley_graph(group: FiniteGroup, gens: Sequence, targetnode=None) -> CayleyGraph:
    """Left-multiplication Cayley graph: edge labelled i maps v to gens[i-1]*v.

    The startnode is the identity; targetnode defaults to the identity and
    may be given as an element.  Rejects non-generating sets.
    """
    gens = tuple(gens)
    if not gens:
        raise InputError("generator set must be nonempty")
    for g in gens:
        if g not in group.index:
            raise InputError(f"generator {g!r} not a group element")
    rows = group._rows
    if gens != group._gens:
        # another generating set closes to the same sorted elements, so
        # its rows are numbered as group.index numbers them
        other = FiniteGroup(group.name, group.identity, group.multiply,
                            group.inverse, gens)
        if other.order != group.order:
            raise InputError(
                f"{group.name}: generators do not generate the group")
        rows = other._rows
    node_of = group.index
    start = node_of[group.identity]
    tgt = start if targetnode is None else node_of[targetnode]
    graph = LabelledGraph(group.order, len(gens), rows, start, tgt)
    return CayleyGraph(graph, group, gens, node_of)


# ---------------------------------------------------------------------------
# Abelian groups

def abelian_group(moduli: Sequence[int], gens: Sequence[Sequence[int]] | None = None):
    """Direct sum of Z_{n_j} with a chosen (possibly redundant) generator list.

    Elements are residue tuples.  Generators default to the unit vectors and
    are checked to generate the whole group.
    """
    moduli = tuple(int(m) for m in moduli)
    if not moduli or any(m < 1 for m in moduli):
        raise InputError("moduli must be positive integers")
    size = math.prod(moduli)
    _check_cap(size, "abelian group")
    k = len(moduli)

    def mul(a, b):
        return tuple((a[i] + b[i]) % moduli[i] for i in range(k))

    def inv(a):
        return tuple((-a[i]) % moduli[i] for i in range(k))

    if gens is None:
        gen_list = tuple(tuple(1 if j == i else 0 for j in range(k)) for i in range(k))
    else:
        if any(len(g) != k for g in gens):
            raise InputError("generator arity does not match moduli")
        gen_list = tuple(tuple(int(x) % moduli[i] for i, x in enumerate(g)) for g in gens)
    name = "Z" + "x".join(f"Z{m}" for m in moduli) if k > 1 else f"Z{moduli[0]}"
    group = FiniteGroup(name, (0,) * k, mul, inv, gen_list)
    _expect_order(group, size)
    return group, gen_list


def grid_group(d: int, l: int):
    """(Z_l)^d with the d unit-vector generators, each of order l."""
    if d < 1 or l < 2:
        raise InputError("grid group needs d >= 1 and l >= 2")
    return abelian_group((l,) * d)


# ---------------------------------------------------------------------------
# Symmetric groups

def _perm_mul(a, b):
    # right factor acts first: (a*b)(x) = a(b(x))
    return tuple(a[b[i] - 1] for i in range(len(a)))


def _perm_inv(a):
    out = [0] * len(a)
    for i, img in enumerate(a):
        out[img - 1] = i + 1
    return tuple(out)


def symmetric_group(n: int):
    """S(n) with generators (cy, sw): cy is i -> i+1 cyclically, sw swaps 1,2."""
    if n < 2:
        raise InputError("symmetric group needs n >= 2")
    size = math.factorial(n)
    _check_cap(size, "symmetric group")
    cy = tuple(list(range(2, n + 1)) + [1])
    sw = tuple([2, 1] + list(range(3, n + 1)))
    group = FiniteGroup(f"S{n}", tuple(range(1, n + 1)), _perm_mul, _perm_inv,
                        (cy, sw))
    _expect_order(group, size)
    return group, (cy, sw)


CY, SW = 1, 2


def p_k_path(n: int, k: int) -> tuple[int, ...]:
    """Label word over {cy=1, sw=2} whose path evaluates to the k-cycle
    (n-k+1, n-k+2, ..., n) on the last k points of S(n)."""
    if not 2 <= k <= n:
        raise InputError(f"need 2 <= k <= n, got k={k}, n={n}")
    word = [CY, CY, SW]
    word += [CY, SW] * (k - 2)
    word += [CY] * (n - k)
    return tuple(word)


def k_cycle(n: int, k: int) -> tuple[int, ...]:
    """The permutation (n-k+1, n-k+2, ..., n) in image form."""
    img = list(range(1, n + 1))
    for i in range(n - k + 1, n):
        img[i - 1] = i + 1
    img[n - 1] = n - k + 1
    return tuple(img)


# ---------------------------------------------------------------------------
# General linear groups over prime fields

def _mat_mul(p):
    def mul(a, b):
        n = len(a)
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
            for i in range(n))
    return mul


def _mat_inv(p):
    def inv(a):
        n = len(a)
        aug = [list(row) + [1 if i == j else 0 for j in range(n)]
               for i, row in enumerate(a)]
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col] % p), None)
            if piv is None:
                raise InputError("matrix not invertible")
            aug[col], aug[piv] = aug[piv], aug[col]
            scale = pow(aug[col][col], p - 2, p)
            aug[col] = [x * scale % p for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
        return tuple(tuple(row[n:]) for row in aug)
    return inv


def _is_prime(p):
    if p < 2:
        return False
    for q in range(2, int(p ** 0.5) + 1):
        if p % q == 0:
            return False
    return True


def primitive_root(p: int) -> int:
    """Least primitive root of the prime field GF(p); 1 for p = 2."""
    if p == 2:
        return 1
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise InputError(f"{p} is not prime")


def gl_group(n: int, p: int):
    """GL(n, p) with the four column-operation generators.

    Generators, in order: scale the first column by the least primitive root
    of GF(p); add the first column to the second; swap the first two columns;
    rotate all columns one step left.  Each is realised as the matrix M with
    op(A) = A*M, i.e. op applied to the identity.
    """
    if n < 2:
        raise InputError("gl group needs n >= 2")
    if not _is_prime(p):
        raise InputError(f"{p} is not prime")
    order = 1
    for i in range(n):
        order *= p ** n - p ** i
    _check_cap(order, "general linear group")

    w = primitive_root(p)
    def colop(fn):
        cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        cols = fn(cols)
        return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))

    g_scale = colop(lambda c: [[x * w % p for x in c[0]]] + c[1:])
    g_add = colop(lambda c: [c[0], [(x + y) % p for x, y in zip(c[0], c[1])]] + c[2:])
    g_swap = colop(lambda c: [c[1], c[0]] + c[2:])
    g_rot = colop(lambda c: c[1:] + [c[0]])
    gens = (g_scale, g_add, g_swap, g_rot)
    identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    group = FiniteGroup(f"GL({n},{p})", identity, _mat_mul(p), _mat_inv(p), gens)
    _expect_order(group, order)
    return group, gens


# ---------------------------------------------------------------------------
# Products

def direct_product(g_group: FiniteGroup, g_gens, h_group: FiniteGroup, h_gens):
    """Componentwise product; generators are G's embedded first, then H's."""
    size = g_group.order * h_group.order
    _check_cap(size, "direct product")

    def mul(a, b):
        return (g_group.multiply(a[0], b[0]), h_group.multiply(a[1], b[1]))

    def inv(a):
        return (g_group.inverse(a[0]), h_group.inverse(a[1]))

    gens = tuple((g, h_group.identity) for g in g_gens)
    gens += tuple((g_group.identity, h) for h in h_gens)
    group = FiniteGroup(f"({g_group.name}x{h_group.name})",
                        (g_group.identity, h_group.identity), mul, inv, gens)
    _expect_order(group, size)
    return group, gens


class WreathStructure:
    """G wr H with elements (f, h), f a total map H -> G stored as a tuple
    indexed by H's element enumeration.

    Multiplication twists the right function by the left H-part:
    (f1,h1)(f2,h2) = (h3 -> f1(h3) * f2(h1^-1 h3), h1 h2).
    """

    def __init__(self, g_group: FiniteGroup, g_gens, h_group: FiniteGroup, h_gens):
        self.G = g_group
        self.H = h_group
        self.g_gens = tuple(g_gens)
        self.h_gens = tuple(h_gens)
        size = g_group.order ** h_group.order * h_group.order
        _check_cap(size, "wreath product")
        h_elems = h_group.elements
        h_index = h_group.index
        g_id = g_group.identity

        # per-h1 index permutation for h3 -> h1^-1 * h3
        twist = {}
        for h1 in h_elems:
            h1i = h_group.inverse(h1)
            twist[h1] = tuple(h_index[h_group.multiply(h1i, h3)] for h3 in h_elems)
        self._twist = twist

        def mul(a, b):
            f1, h1 = a
            f2, h2 = b
            tw = twist[h1]
            f3 = tuple(g_group.multiply(f1[i], f2[tw[i]]) for i in range(len(h_elems)))
            return (f3, h_group.multiply(h1, h2))

        def inv(a):
            f, h = a
            hi = h_group.inverse(h)
            # f'(y) = f(h*y)^-1
            fp = tuple(g_group.inverse(f[h_index[h_group.multiply(h, y)]])
                       for y in h_elems)
            return (fp, hi)

        one = (tuple(g_id for _ in h_elems), h_group.identity)
        self.gens = tuple(self.delta_left(g) for g in self.g_gens)
        self.gens += tuple(self.delta_right(h) for h in self.h_gens)
        self.group = FiniteGroup(f"({g_group.name} wr {h_group.name})", one,
                                 mul, inv, self.gens)
        _expect_order(self.group, size)

    def delta_left(self, g):
        """Embedding of a G-element: the map supported at 1_H only."""
        f = tuple(g if h == self.H.identity else self.G.identity
                  for h in self.H.elements)
        return (f, self.H.identity)

    def delta_right(self, h):
        """Embedding of an H-element: the constant-identity map paired with h."""
        return (tuple(self.G.identity for _ in self.H.elements), h)

    def point_support(self, hs: Sequence, gs: Sequence):
        """The element (f, 1_H) with f(hs[i]) = gs[i] and identity elsewhere.

        Requires pairwise-distinct support points and non-identity values.
        """
        if len(hs) != len(gs):
            raise InputError("support points and values must have equal length")
        if len(set(hs)) != len(hs):
            raise InputError("support points must be pairwise distinct")
        if any(g == self.G.identity for g in gs):
            raise InputError("support values must be non-identity")
        at = dict(zip(hs, gs))
        f = tuple(at.get(h, self.G.identity) for h in self.H.elements)
        return (f, self.H.identity)

    def f_value(self, x, h):
        """f(h) for x = (f, _)."""
        return x[0][self.H.index[h]]

    def support_size(self, x) -> int:
        return sum(1 for v in x[0] if v != self.G.identity)


def wreath_structure(g_group, g_gens, h_group, h_gens) -> WreathStructure:
    return WreathStructure(g_group, g_gens, h_group, h_gens)


def wreath_product(g_group, g_gens, h_group, h_gens):
    """(group, generators) of G wr H; generators are G-embeds then H-embeds."""
    ws = WreathStructure(g_group, g_gens, h_group, h_gens)
    return ws.group, ws.gens
