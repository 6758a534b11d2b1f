"""The imperative nondeterministic pebble language, its interpreter, and the
compiler to a jumping automaton.

Grammar (line oriented; ``#`` starts a comment; blocks use braces):

    pebble <id> [at target | at start]
    dir <id> : 1..d            # direction variable over the graph degree
    dir <id> : {a,b,c}         # explicit finite integer domain
    guess <id>                 # nondeterministic choice over the domain
    guess <id> : bool          # boolean guess; declares <id> on first use
    move <p> along <e>         # e: integer label, direction variable, or d
    jump <p> to <q>
    <p> := <q>                 # jump shorthand
    <p> := <q>.<e>             # jump then move
    visit <p>                  # place curr on <p>'s node
    if <cond> { ... } [else { ... }]
    while <cond> { ... }
    for <id> = <a> to <b> { ... }   # a, b: integer, direction variable, or d
    fail
    accept

Conditions are pebble (in)equality ``p == q`` / ``p != q`` or a boolean
variable.  Declarations precede statements.  Programs end by ``accept``;
falling off the end, like ``fail``, kills the run.

``parse_program`` checks a program and lowers it in one pass over its
blocks to flat instructions, each with its source line
(``PebbleProgram.code``): names become pebble and variable indices, and a
jump target is patched in when its block closes.  Only ``d`` waits for a
graph degree: ``PebbleProgram.bind`` resolves it, builds the variable
domains and raises, on the instruction's line, the errors that depend on
the degree (a label above it, a moved variable's domain outside ``1..d``,
a loop counter's domain that a bound can leave).

Acceptance is angelic: a program accepts when some resolution of its guesses
reaches ``accept``.  A step is one pebble action (``move``, ``jump``, or
``accept`` into an accept configuration); control instructions move no
pebble and fold into the actions they reach.  A program's configurations
are the finite product of program point, variable valuation and pebble
placement.  ``BoundProgram.steps`` lowers a state's steps once, as
``(next, pebble, move)`` triples with every variable dead at ``next``'s
point reset, and two encodings read it.  ``ProgramSpace`` packs the
configurations into ints and steps them by arithmetic on the triples of
the program's state graph (``BoundProgram.state_graph``, made once per
bound program, and a program binds once per degree);
``PebbleProgram.space`` hands it to the searches of ``machine``, so
``interpret`` (``machine.run``), ``verify``, ``check_traversable``,
``check_orderable`` and ``decide_co_st_connectivity`` take a program as
they take an automaton, and cyclic nondeterminism terminates.  The
compiler writes the triples as move vectors of an automaton over states
(program point, valuation), every pebble not being acted on jumping to
itself, so its configuration graph is the same.  It serves ``run
--compiled`` and the cross-check of the program's space; its ``delta`` is
a function, not a rule table, so ``serialize_jag`` does not take it.  Both
are searched by the one ``machine.expand``, so they count budgets alike.

Pebbles named ``s`` and ``t`` are the designated ones and are added
implicitly when not declared; the designated ``t`` always starts on the
targetnode.  A pebble named ``curr`` is the visit-order pebble.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from .errors import ProgramError, InputError
from .graph import LabelledGraph, closure
from .machine import (Limits, NdJag, PackedSpace, RunResult, _layout,
                      all_partitions, run)

_TOKEN = re.compile(r"(:=|==|!=|\.\.|[{}:,.=]|[A-Za-z_][A-Za-z0-9_]*|\d+)")
_RESERVED = {"d", "pebble", "dir", "guess", "move", "jump", "visit", "if",
             "else", "while", "for", "fail", "accept", "along", "to", "at",
             "bool", "target", "start", "not", "true", "false"}


# the lines that close a block; only the first block of an if takes _ELSE
_CLOSE, _ELSE = ["}"], ["}", "else", "{"]


def _tokens(line: str, lineno: int) -> list[str]:
    """The tokens of ``line``, which must cover every character but
    whitespace.  Tokens hold no whitespace, so they cover the rest exactly
    when they spell it out; otherwise the first character no token covers
    is the first non-space one in a gap between matches or after them."""
    out = _TOKEN.findall(line)
    if "".join(out) != "".join(line.split()):
        pos = 0
        for m in _TOKEN.finditer(line):
            if line[pos:m.start()].strip():
                break
            pos = m.end()
        raise ProgramError(f"cannot tokenize at {line[pos:].lstrip()!r}",
                           line=lineno)
    return out


@dataclass(frozen=True)
class PebbleProgram:
    """Parsed program: its declarations and its flat instructions.

    ``code[pt]`` is ``(instruction, line)``: the instruction at point
    ``pt`` of the bound program and the source line it comes from.
    Pebbles and variables are already indices, and jump targets points;
    only a label or loop bound ``d`` is ``("degree",)`` until ``bind``
    resolves it.  The jumps that put pebbles declared ``at target`` on
    ``t`` come first, on their declaration lines, and the ``fail`` that
    rejects a run falling off the end comes last, on line None.
    """

    pebbles: tuple            # (name, at_target) in declaration order
    dirs: tuple               # (name, domain_spec); spec = ("1..d",) | ("set", vals)
    bools: tuple              # boolean variable names
    code: tuple               # (instruction, line) per program point
    source: str = ""
    # degree -> its BoundProgram, so that every search of the program at
    # one degree shares the bound program's caches
    _bound: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    def bind(self, degree: int) -> "BoundProgram":
        """The program at graph degree ``degree``: ``d`` resolved, the
        variable domains built and the errors that depend on the degree
        raised on their lines.  The first call at a degree that raises
        nothing binds; later calls at that degree return the same
        ``BoundProgram``, and a degree that raises raises on every call."""
        bound = self._bound.get(degree)
        if bound is None:
            bound = self._bound[degree] = self._bind(degree)
        return bound

    def _bind(self, degree: int) -> "BoundProgram":
        if degree < 1:
            raise InputError("degree must be at least 1")
        pebble_names = _pebble_names(self.pebbles)
        var_names = [name for name, _ in self.dirs] + list(self.bools)
        domains = [tuple(range(1, degree + 1)) if spec[0] == "1..d"
                   else spec[1] for _, spec in self.dirs]
        domains += [(False, True)] * len(self.bools)
        lit = ("lit", degree)
        instrs = []
        for op, line in self.code:
            if _DEGREE in op:
                op = tuple([lit if x == _DEGREE else x for x in op])
            if op[0] == "move":
                label = op[2]
                if label[0] == "lit" and label[1] > degree:
                    raise ProgramError(
                        f"label {label[1]} exceeds degree {degree}", line=line)
                # only variables used as move labels must be degree-closed
                if label[0] == "var" and \
                        any(not 1 <= v <= degree for v in domains[label[1]]):
                    raise ProgramError(
                        f"domain of {var_names[label[1]]!r} not within "
                        f"1..{degree}", line=line)
            elif op[0] == "forstart":
                _, vi, a, b = op[:4]
                var, dom = var_names[vi], domains[vi]
                if tuple(dom) != tuple(range(dom[0], dom[-1] + 1)):
                    raise ProgramError(
                        f"for-loop variable {var!r} needs a contiguous domain",
                        line=line)
                # assignments must stay inside the counter's domain
                if (a[1] if a[0] == "lit" else min(domains[a[1]])) < dom[0]:
                    raise ProgramError(
                        f"loop start below domain of {var!r}", line=line)
                if (b[1] if b[0] == "lit" else max(domains[b[1]])) > dom[-1]:
                    raise ProgramError(
                        f"loop bound can exceed domain of {var!r}", line=line)
            instrs.append(op)
        pidx = {name: i + 1 for i, name in enumerate(pebble_names)}
        return BoundProgram(tuple(pebble_names), pidx["s"], pidx["t"],
                            pidx.get("curr"), tuple(domains),
                            tuple(dom[0] for dom in domains), tuple(instrs))

    def space(self, g: LabelledGraph) -> "ProgramSpace":
        """The configurations a search of this program on ``g`` visits."""
        return ProgramSpace(self, g)


_DEGREE = ("degree",)  # a label or loop bound d, until bind resolves it


def _pebble_names(pebbles) -> list:
    """The pebble names in index order: the declared ones, then ``s`` and
    ``t`` where they are not declared."""
    names = [name for name, _ in pebbles]
    return names + [auto for auto in ("s", "t") if auto not in names]


def parse_program(text: str) -> PebbleProgram:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, _tokens(stripped, lineno)))

    pebbles: list = []
    dirs: list = []
    bools: list = []
    declared: set = set()
    targets: list = []  # (name, line) of the pebbles declared at target

    def declare(name, lineno):
        if name in _RESERVED:
            raise ProgramError(f"{name!r} is reserved", line=lineno)
        if name in declared:
            raise ProgramError(f"duplicate declaration of {name!r}", line=lineno)
        declared.add(name)

    idx = 0
    # declaration section
    while idx < len(lines):
        lineno, toks = lines[idx]
        if toks[0] == "pebble":
            if len(toks) == 2:
                at_target = False
            elif len(toks) == 4 and toks[2] == "at" and toks[3] in ("target", "start"):
                at_target = toks[3] == "target"
            else:
                raise ProgramError("malformed pebble declaration", line=lineno)
            declare(toks[1], lineno)
            pebbles.append((toks[1], at_target))
            if at_target:
                targets.append((toks[1], lineno))
            idx += 1
        elif toks[0] == "dir":
            if len(toks) >= 4 and toks[2] == ":":
                if toks[3:] == ["1", "..", "d"]:
                    spec = ("1..d",)
                elif toks[3] == "{" and toks[-1] == "}":
                    vals = [t for t in toks[4:-1] if t != ","]
                    for v in vals:
                        if v != ".." and not v.isdigit():
                            raise ProgramError(
                                f"domain value {v!r} is not an integer",
                                line=lineno)
                    # allow {a..b} contiguous shorthand alongside comma lists
                    if ".." not in vals:
                        body_vals = [int(v) for v in vals]
                    elif len(vals) == 3 and vals[1] == "..":
                        body_vals = list(range(int(vals[0]), int(vals[2]) + 1))
                    else:
                        raise ProgramError("malformed domain", line=lineno)
                    if not body_vals:
                        raise ProgramError("empty domain", line=lineno)
                    spec = ("set", tuple(sorted(set(body_vals))))
                else:
                    raise ProgramError("malformed dir declaration", line=lineno)
            else:
                raise ProgramError("malformed dir declaration", line=lineno)
            declare(toks[1], lineno)
            if toks[1] in ("s", "t"):
                raise ProgramError("'s' and 't' are pebble names", line=lineno)
            dirs.append((toks[1], spec))
            idx += 1
        else:
            break

    # the designated pebbles s and t exist implicitly
    pidx = {name: i + 1 for i, name in enumerate(_pebble_names(pebbles))}
    dir_names = {name for name, _ in dirs}

    # collect implicit boolean declarations
    for lineno, toks in lines[idx:]:
        if toks[:1] == ["guess"] and len(toks) == 4 and toks[2] == ":" \
                and toks[3] == "bool":
            name = toks[1]
            if name in pidx or name in dir_names:
                raise ProgramError(f"{name!r} already declared", line=lineno)
            if name not in bools:
                if name in _RESERVED:
                    raise ProgramError(f"{name!r} is reserved", line=lineno)
                bools.append(name)
    bool_names = set(bools)
    vidx = {name: i for i, name in enumerate([n for n, _ in dirs] + bools)}

    # prologue: non-t pebbles declared "at target" jump to t first
    code = [(("jump", pidx[name], pidx["t"]), lineno)
            for name, lineno in targets if name != "t"]

    def emit(op, lineno) -> int:
        code.append((op, lineno))
        return len(code) - 1

    def pebble(name, lineno):
        if name not in pidx:
            raise ProgramError(f"undeclared pebble {name!r}", line=lineno)
        return pidx[name]

    def operand(tok, lineno, what):
        """A label or loop bound: a literal, ``d``, or a dir variable."""
        if tok.isdigit():
            return ("lit", int(tok))
        if tok == "d":
            return _DEGREE
        if tok in dir_names:
            return ("var", vidx[tok])
        raise ProgramError(f"{tok!r} is not {what}", line=lineno)

    def move(p, tok, lineno):
        label = operand(tok, lineno, "a label or direction variable")
        if label == ("lit", 0):
            raise ProgramError("edge labels start at 1", line=lineno)
        emit(("move", p, label), lineno)

    def parse_cond(toks, lineno):
        """The branch instruction without its two targets, and whether
        they swap: ``p != q`` is ``ifeq`` with its targets swapped."""
        if len(toks) == 1:
            if toks[0] not in bool_names:
                raise ProgramError(f"{toks[0]!r} is not a boolean variable",
                                   line=lineno)
            return ("ifvar", vidx[toks[0]]), False
        if len(toks) == 3 and toks[1] in ("==", "!="):
            return (("ifeq", pebble(toks[0], lineno), pebble(toks[2], lineno)),
                    toks[1] == "!=")
        raise ProgramError("malformed condition", line=lineno)

    def branch(at, cond, other):
        """Patch the branch at point ``at``: into the block after it when
        ``cond`` holds, else to ``other``."""
        op, swap = cond
        code[at] = (op + ((other, at + 1) if swap else (at + 1, other)),
                    code[at][1])

    def block(pos, open_line, closers):
        """Emit the statements from ``pos`` up to their closing line, which
        must be one of ``closers``; returns (closer, next position)."""
        pos = statements(pos)
        if pos == len(lines):
            raise ProgramError("missing '}' for block", line=open_line)
        lineno, toks = lines[pos]
        if toks not in closers:
            raise ProgramError("unexpected 'else'" if toks == _ELSE
                               else "malformed '}' line", line=lineno)
        return toks, pos + 1

    def statements(pos):
        """Emit the statements up to the next '}' line; returns that
        line's position."""
        while pos < len(lines) and lines[pos][1][0] != "}":
            lineno, toks = lines[pos]
            pos += 1
            head = toks[0]
            if head in ("pebble", "dir"):
                raise ProgramError("declarations must precede statements",
                                   line=lineno)
            if head == "guess":
                # the pre-pass declared the variable of guess <id> : bool
                if len(toks) == 2 and toks[1] not in dir_names | bool_names:
                    raise ProgramError(f"undeclared variable {toks[1]!r}",
                                       line=lineno)
                if len(toks) != 2 and toks[2:] != [":", "bool"]:
                    raise ProgramError("malformed guess", line=lineno)
                emit(("guess", vidx[toks[1]]), lineno)
            elif head == "move":
                if len(toks) != 4 or toks[2] != "along":
                    raise ProgramError("expected: move <p> along <e>", line=lineno)
                move(pebble(toks[1], lineno), toks[3], lineno)
            elif head == "jump":
                if len(toks) != 4 or toks[2] != "to":
                    raise ProgramError("expected: jump <p> to <q>", line=lineno)
                emit(("jump", pebble(toks[1], lineno), pebble(toks[3], lineno)),
                     lineno)
            elif head == "visit":
                if len(toks) != 2:
                    raise ProgramError("expected: visit <p>", line=lineno)
                p = pebble(toks[1], lineno)
                if "curr" not in pidx:
                    raise ProgramError("visit needs a declared curr pebble",
                                       line=lineno)
                emit(("jump", pidx["curr"], p), lineno)
            elif head == "fail" or head == "accept":
                if len(toks) != 1:
                    raise ProgramError(f"expected: {head}", line=lineno)
                emit((head,), lineno)
            elif head == "if" or head == "while":
                if toks[-1] != "{":
                    raise ProgramError("expected '{' at line end", line=lineno)
                cond = parse_cond(toks[1:-1], lineno)
                at = emit(None, lineno)
                if head == "while":
                    _, pos = block(pos, lineno, (_CLOSE,))
                    emit(("goto", at), lineno)
                    other = len(code)
                else:  # only the first block of an if may close with an else
                    close, pos = block(pos, lineno, (_CLOSE, _ELSE))
                    other = len(code)
                    if close == _ELSE:  # a goto past a nonempty else block
                        emit(None, lineno)
                        _, pos = block(pos, lineno, (_CLOSE,))
                        if len(code) == other + 1:
                            code.pop()
                        else:
                            code[other] = (("goto", len(code)), lineno)
                            other += 1
                branch(at, cond, other)
            elif head == "for":
                # for <id> = <a> to <b> {
                if len(toks) != 7 or toks[2] != "=" or toks[4] != "to" \
                        or toks[6] != "{":
                    raise ProgramError("expected: for <id> = <a> to <b> {",
                                       line=lineno)
                if toks[1] not in dir_names:
                    raise ProgramError(f"loop variable {toks[1]!r} is not a dir",
                                       line=lineno)
                vi = vidx[toks[1]]
                a = operand(toks[3], lineno, "a loop bound")
                b = operand(toks[5], lineno, "a loop bound")
                at = emit(None, lineno)
                _, pos = block(pos, lineno, (_CLOSE,))
                nxt = emit(None, lineno)
                code[at] = (("forstart", vi, a, b, at + 1, len(code)), lineno)
                code[nxt] = (("fornext", vi, b, at + 1, len(code)), lineno)
            elif len(toks) >= 3 and toks[1] == ":=":
                p, q = pebble(head, lineno), pebble(toks[2], lineno)
                if len(toks) != 3 and (len(toks) != 5 or toks[3] != "."):
                    raise ProgramError("expected: <p> := <q> or <p> := <q>.<e>",
                                       line=lineno)
                emit(("jump", p, q), lineno)
                if len(toks) == 5:  # <p> := <q>.<e> jumps, then moves
                    move(p, toks[4], lineno)
            else:
                raise ProgramError(f"unrecognized statement {head!r}", line=lineno)
        return pos

    try:
        pos = statements(idx)
    finally:  # the two call each other: break that reference cycle
        block = statements = None
    if pos != len(lines):
        raise ProgramError("unbalanced '}'", line=lines[pos][0])
    emit(("fail",), None)  # falling off the end rejects
    return PebbleProgram(tuple(pebbles), tuple(dirs), tuple(bools),
                         tuple(code), text)


# ---------------------------------------------------------------------------
# Binding and lowering

_ACTIONS = ("move", "jump", "accept")  # the instructions that are steps


@dataclass(frozen=True)
class BoundProgram:
    """Program lowered to flat instructions for a concrete graph degree.

    ``_edges`` is the one definition of what each control instruction does:
    ``fold`` walks the edges a state takes, ``observed`` and the liveness
    behind ``canon`` walk every edge.
    """

    pebble_names: tuple
    s_idx: int
    t_idx: int
    curr_idx: int | None
    var_domains: tuple        # tuple of value tuples
    init_vals: tuple
    instrs: tuple
    # observed(pt) per point, the variables dead at each point (filled at
    # the first canon) and the state graph with the sole edge into each
    # state that has one (filled at the first state_graph), made when asked
    # so that binding stays cheap
    _observed: dict = field(default_factory=dict, init=False, compare=False)
    _dead: list = field(default_factory=list, init=False, compare=False)
    _graph: dict = field(default_factory=dict, init=False, compare=False)
    _sole: dict = field(default_factory=dict, init=False, compare=False)

    @property
    def num_pebbles(self) -> int:
        return len(self.pebble_names)

    def _edges(self, pt: int, vals: tuple | None = None, pi=None):
        """The control-flow edges out of ``pt``, as ``(successor, read,
        assigned, after)``: the variables the edge reads and those it
        assigns, as bits, and the valuation after it.

        Given a valuation ``vals`` and a partition ``pi``, as ``fold`` takes
        them, only the edges the state ``(pt, vals)`` takes, in order;
        without them, every edge, with ``after`` None.  A pebble action's
        edge goes to the next point, and ``accept`` and ``fail`` have none.
        A ``for`` loop assigns its counter on the edge into the body only.
        """
        op = self.instrs[pt]
        kind, free = op[0], vals is None
        if kind == "move" or kind == "jump":
            yield pt + 1, _var_bit(op[2]) if kind == "move" else 0, 0, vals
        elif kind == "goto":
            yield op[1], 0, 0, vals
        elif kind == "guess":
            vi = op[1]
            if free:
                yield pt + 1, 0, 1 << vi, None
            else:
                for val in self.var_domains[vi]:
                    yield pt + 1, 0, 1 << vi, _assign(vals, vi, val)
        elif kind == "ifvar" or kind == "ifeq":
            read = 1 << op[1] if kind == "ifvar" else 0
            taken = free or (vals[op[1]] if kind == "ifvar"
                             else pi[op[1] - 1] == pi[op[2] - 1])
            if taken:
                yield op[-2], read, 0, vals
            if free or not taken:
                yield op[-1], read, 0, vals
        elif kind == "forstart":
            _, vi, a, b, body, out = op
            read = _var_bit(a) | _var_bit(b)
            if not free:
                a, b = _eval_bound(a, vals), _eval_bound(b, vals)
            if free or a <= b:
                yield body, read, 1 << vi, None if free else \
                    _assign(vals, vi, a)
            if free or a > b:
                yield out, read, 0, vals
        elif kind == "fornext":
            _, vi, b, body, out = op
            read = 1 << vi | _var_bit(b)
            if not free:
                b = _eval_bound(b, vals)
            if free or vals[vi] < b:
                yield body, read, 1 << vi, None if free else \
                    _assign(vals, vi, vals[vi] + 1)
            if free or vals[vi] >= b:
                yield out, read, 0, vals
        # accept and fail end every path

    def fold(self, pt: int, vals: tuple, pi) -> list:
        """The ``(pt, vals)`` pairs at a ``move``, ``jump`` or ``accept``
        that control flow reaches from ``(pt, vals)``, breadth-first.

        Follows the ``_edges`` the states take and drops ``fail``; a
        seen-set ends control-only cycles.  ``pi[i - 1] == pi[j - 1]`` iff
        pebbles i and j share a node, which holds throughout since no
        pebble moves.
        """
        instrs, edges = self.instrs, self._edges
        todo = [(pt, vals)]
        seen = set(todo)
        actions = []
        for state in todo:  # todo grows while it is read
            if instrs[state[0]][0] in _ACTIONS:
                actions.append(state)
                continue
            for nxt, _, _, after in edges(*state, pi):
                if (nxt, after) not in seen:
                    seen.add((nxt, after))
                    todo.append((nxt, after))
        return actions

    def steps(self, pt: int, vals: tuple, pi) -> list:
        """The distinct ``(next, pebble, move)`` of the pebble actions that
        ``(pt, vals)`` reaches, in ``fold`` order: the one lowering of a
        state's steps, which ``ProgramSpace`` and ``compile_program`` encode.

        ``next`` is the state after the action, canonical (``canon``), and
        None for ``accept``, which moves no pebble.  Otherwise ``pebble``
        moves as in a move vector: ``+label`` along a label, ``-q`` to
        pebble q.
        """
        instrs = self.instrs
        out = {}
        # an action is the one point its own fold reaches
        for pt, vals in ((pt, vals),) if instrs[pt][0] in _ACTIONS \
                else self.fold(pt, vals, pi):
            op = instrs[pt]
            if op[0] == "accept":
                out[None, None, None] = None
            else:
                move = -op[2] if op[0] == "jump" else _eval_bound(op[2], vals)
                out[self.canon(pt + 1, vals), op[1], move] = None
        return list(out)

    def observed(self, pt: int) -> tuple:
        """The pebble pairs ``(i, j)``, 0-based with ``i < j`` and sorted,
        that ``ifeq`` instructions compare on the control paths from ``pt``
        to the next pebble actions; ``()`` at an action.

        Every edge is followed, whatever the valuation, so ``fold(pt,
        vals, pi)`` reads ``pi`` only at these pairs: for every ``vals``
        its answer depends only on which of them share a node.  A pebble
        compared with itself always does, so that pair is left out.
        """
        pairs = self._observed.get(pt)
        if pairs is None:
            instrs = self.instrs
            reached = closure(pt, lambda q: () if instrs[q][0] in _ACTIONS
                              else [edge[0] for edge in self._edges(q)])
            pairs = self._observed[pt] = tuple(sorted({
                (min(op[1], op[2]) - 1, max(op[1], op[2]) - 1)
                for op in map(instrs.__getitem__, reached)
                if op[0] == "ifeq" and op[1] != op[2]}))
        return pairs

    def canon(self, pt: int, vals: tuple) -> tuple:
        """The state ``(pt, vals)`` with every variable dead at ``pt`` reset
        to its domain's first value.

        A variable is live at ``pt`` if some path of instructions from
        ``pt`` reads it before assigning it, each instruction reading and
        assigning on its edges what ``_edges`` says.

        Why both routes may search canonical states.  Call ``(pt, v)`` and
        ``(pt, w)`` alike when ``v`` and ``w`` agree on the variables live
        at ``pt``.  Each instruction takes alike states to alike successors,
        the same points in the same order: what it reads is live, and a
        variable live after it is live before it unless it assigns the
        variable, the same value on both sides.  So ``fold`` reaches alike
        actions in the same order of first appearance: a state alike to one
        it met before adds nothing that the earlier one did not add first.
        Their actions lead to alike next states, which ``canon`` makes
        equal, so ``steps`` gives alike states one list.  Configurations
        that differ only in dead variables therefore have the same
        successors in the same order, and the breadth-first search over
        canonical configurations meets each class of alike configurations
        when the plain search meets its first member, at the same depth and
        below the class of that member's parent.  Verdicts, visit orders
        and the first accept configuration are the plain search's; a
        configuration count counts the classes.
        """
        dead = (self._dead or self._fill_dead())[pt]
        if dead:
            vals = list(vals)
            for i, first in dead:
                vals[i] = first
            vals = tuple(vals)
        return pt, vals

    def state_graph(self) -> tuple:
        """``(graph, sole)``: the states that steps reach from the start
        state under every placement, with their steps, and the one edge
        into each state that only one edge enters.

        ``graph[state]`` maps the pattern of which pairs of
        ``observed(pt)`` share a node, as bits (bit k: the k-th pair does),
        to ``steps`` under a placement with that pattern.  Every pattern a
        placement can have is there, each from one representative partition
        (``steps`` reads nothing else of a placement), except that a state
        whose steps are the same list under every pattern has the one entry
        0: it is placement-independent.  An edge is ``(state, pebble,
        move)`` of a triple that ``steps`` gives at some pattern, so the
        edges over-approximate those a search follows.  ``sole[state]`` is
        that edge for a state that no other edge enters and that is not the
        start state, when its move walks along a label (``move > 0``).
        """
        if not self._graph:
            self._close()
        return self._graph, self._sole

    def _close(self):
        """Fill ``_graph`` and ``_sole`` by a search over states from the
        start state, stepping each once per pattern; ``_graph`` is filled
        last, in one update, so a search cut short leaves it empty."""
        graph, steps, p = {}, self.steps, self.num_pebbles
        start = (0, self.init_vals)
        into = {start: None}  # state -> the one edge into it; None: more
        todo = [start]
        for state in todo:  # todo grows while it is read
            by = {}
            for bits, pi in _patterns(self.observed(state[0]), p):
                by[bits] = triples = steps(*state, pi)
                for nxt, pebble, move in triples:
                    if nxt is None:  # accept
                        continue
                    edge = state, pebble, move
                    if nxt not in into:
                        into[nxt] = edge
                        todo.append(nxt)
                    elif into[nxt] != edge:
                        into[nxt] = None
            same = by[0]  # no observed pair shares a node
            graph[state] = by if any(triples != same for triples
                                     in by.values()) else {0: same}
        self._sole.update((state, edge) for state, edge in into.items()
                          if edge is not None and edge[2] > 0)
        self._graph.update(graph)

    def _fill_dead(self) -> list:
        """``_dead[pt]``, the ``(variable, first value)`` pairs of the
        variables dead at ``pt``, from a backward dataflow over every
        ``_edges`` to a fixpoint."""
        rows = [tuple(self._edges(pt)) for pt in range(len(self.instrs))]
        live = [0] * len(rows)  # bit i: variable i is live
        changed = True
        while changed:
            changed = False
            for pt in reversed(range(len(rows))):
                mask = 0
                for nxt, read, assigned, _ in rows[pt]:
                    mask |= read | live[nxt] & ~assigned
                if mask != live[pt]:
                    live[pt] = mask
                    changed = True
        init = self.init_vals
        self._dead[:] = [tuple((i, v) for i, v in enumerate(init)
                               if not mask >> i & 1) for mask in live]
        return self._dead


@functools.cache
def _patterns(pairs: tuple, p: int) -> tuple:
    """``(bits, partition)`` for each pattern of which of ``pairs`` share a
    node that a placement of p pebbles can show (bit k: the k-th pair
    does), with the first of ``all_partitions(p)`` that shows it."""
    first: dict = {}
    for pi in all_partitions(p):
        first.setdefault(sum([1 << k for k, (i, j) in enumerate(pairs)
                              if pi[i] == pi[j]]), pi)
    return tuple(first.items())


def _eval_bound(expr, vals):
    return expr[1] if expr[0] == "lit" else vals[expr[1]]


def _var_bit(expr):
    """The variable a label or bound reads, as a bit; 0 for a literal."""
    return 0 if expr[0] == "lit" else 1 << expr[1]


def _assign(vals, vi, val):
    return vals[:vi] + (val,) + vals[vi + 1:]


# ---------------------------------------------------------------------------
# The program's configuration space and the interpreter

# the kinds of a step plan
_END, _FOLD, _SHIFT, _JUMP, _WALK = range(5)

_QA = "qa"  # the accept state, in the program's space and its automaton


class ProgramSpace:
    """The configurations of one pebble program on one graph, packed into
    ints, and their successor function: what ``interpret`` and the
    deciders search for a program.

    It has what a search and the deciders read of ``machine.PackedSpace``:
    ``initial``, ``step``, ``N``, ``B``, ``mask``, ``shifts``, ``curr``
    (the curr pebble, 1-based, or None), ``decode`` and ``leaps``, and
    ``back`` and ``leap`` besides (see below).  A state
    is a canonical ``(pt, vals)`` or the accept state ``"qa"``, and the
    successors of a configuration are the triples of ``BoundProgram.steps``,
    in its order, as ints.  The compiled automaton (``compile_program``) encodes the same
    triples as move vectors, so its space has the same configurations and
    edges and only numbers the states in another order.

    A configuration is one int, ``sid << B | code``, laid out by
    ``machine._layout`` as ``PackedSpace``'s are.  The state id ``sid``
    numbers the states ``(pt, vals)`` a configuration can sit at in the
    order the space meets them; the accept state is 0.  States are
    canonical, as ``steps`` gives them and as the start state is:
    configurations that differ only in variables dead at their point share
    a sid, and a search counts them once.  The code ``sum(nodes[i] <<
    shifts[i])`` gives each pebble a bit field of ``b = (n -
    1).bit_length()`` bits, ``n = g.num_nodes``, so ``0 <= code < N = 1 <<
    B`` with ``B = b * p`` for p pebbles.  Since every node lies in
    ``range(n)``, ``c >> B`` gives back ``sid`` and ``c >> shifts[i] &
    mask`` pebble i + 1's node: the ints are in bijection with the ``(pt,
    vals, nodes)`` triples, and a search, its budgets and its answers are
    those over the triples, whatever values the layout gives the ints.
    (On a one-node graph every code is 0 and ``c`` is the sid.)

    Each sid gets a step plan the first time it is stepped.  A pebble
    action is arithmetic on the int: it adds the change of sid times N and
    the change of the acting pebble's field, read off the int itself.
    ``steps`` reads the placement only through which of the pairs
    ``bp.observed(pt)`` share a node, and ``bp.state_graph()`` holds its
    triples per state and that pattern.  The plan reads them from there,
    keeps them per sid for as long as the space lives, and computes the
    pattern from the int.  A placement-independent state, whose triples are
    the same under every pattern, reads no pair at all, so its plan is its
    one act when it has one.

    A search stores only the configurations that a run can reach twice.
    A sid is fresh when the state graph has one edge into its state, a
    move of pebble ``p`` along label ``l`` from state ``S``
    (``bp.state_graph()[1]``), and the column of ``g.rho`` for ``l`` is a
    permutation of the nodes.  ``leaps`` has an entry per sid interned so
    far, None unless the sid is fresh (a program without fresh states has
    an empty ``leaps``), and ``back(c)`` gives a configuration ``c`` at a
    fresh sid its one possible predecessor.  Why there is only one.  The
    state graph holds every edge that ``steps`` gives from a state a
    search can meet, under every pattern a placement can have, so an edge
    a search follows into a configuration at the fresh sid is an edge of
    the state graph: it comes from a configuration at ``S`` by the move of
    ``p`` along ``l``.  The move along a permutation column is injective on
    nodes, and every other pebble stays, so the placement at ``S`` is the
    one with ``p`` walked back along the inverse column.  A search
    discovers a configuration at a fresh sid at most once, when it expands
    that predecessor: it is never the target of a merge, and it is never
    an accept configuration, which sits at sid 0.  The start state is never
    fresh, since the start enters it as well.  ``machine.expand`` counts a
    fresh configuration without storing it, at its place in its level, and
    a walk up the search tree steps back over it with ``back``.

    Fresh configurations come in chains, and ``expand`` leaps over them.
    A link is a fresh sid whose plan is a single ``_WALK`` to a fresh sid:
    its state is placement-independent and has one step, so the plan is
    the same on every placement.  The iterations of a ``for`` loop whose
    body is a run of moves form such a chain, through the state at its
    ``fornext`` point, wherever one edge enters that state, as in the
    tower programs.  From a first sid, then, the sids of a chain and the
    columns its links walk along are fixed, and since a walk changes one
    pebble's field by a lookup on that field alone, the k walks of a chain
    compose into one table per pebble they move.  ``leap(sid)`` gives
    ``(k, delta, walks)`` and keeps it in ``leaps``, where a fresh sid
    holds True until then: the configuration ``c`` at ``sid`` reaches the
    end of its chain in k steps, at ``c + delta + sum(walk[c >> sp & mask]
    for sp, walk in walks)``, with no ``step`` of the links between.
    """

    decode = PackedSpace.decode  # reads B, mask, shifts and states alone

    def __init__(self, prog: PebbleProgram, g: LabelledGraph):
        bp = prog.bind(g.degree)
        rho, n, observed = g.rho, g.num_nodes, bp.observed
        graph, sole = bp.state_graph()
        b, mask, shifts, _, ones = _layout(n, bp.num_pebbles)
        self.mask, self.shifts = mask, shifts
        B = self.B = b * bp.num_pebbles
        self.N = 1 << B
        self.curr = bp.curr_idx
        states = self.states = [_QA]  # sid -> (pt, vals), or the accept state
        sids = {_QA: 0}
        plans: list = [(_END, 0, 0, None)]  # sid -> step plan, None until needed
        # (pebble shift, label) -> field changes; -label: its inverse's
        walks: dict = {}
        # the labels whose columns are permutations, and the fresh states:
        # one edge enters each, a walk along one of those columns
        perms = {label for label in range(1, g.degree + 1)
                 if len({row[label - 1] for row in rho}) == n}
        fresh = {state for state, edge in sole.items() if edge[2] in perms}
        # sid -> None, or at a fresh sid its leap (True until ``leap`` is
        # asked for it); no table at all without fresh states
        leaps = self.leaps = [None] if fresh else ()
        backs: dict = {}  # fresh sid -> (change of sid times N, shift, changes)
        chains: dict = {}  # the (shift, id of walk) of a chain's links -> walks

        def intern(state):
            sid = sids.get(state)
            if sid is None:
                sid = sids[state] = len(states)
                states.append(state)
                plans.append(None)
                if fresh:
                    leaps.append(True if state in fresh else None)
            return sid

        def acts(sid, bits):
            """The steps of sid's state under the pattern ``bits``, from
            ``bp.state_graph()``, each triple as ``(kind, delta, sp, x)``:
            ``c + delta`` has the next sid, ``sp`` is the acting pebble's
            shift, and ``x`` the jump target's shift or the field's change
            per node walked from.  ``accept`` goes to sid 0 and moves no
            pebble."""
            out = []
            for nxt, pebble, move in graph[states[sid]][bits]:
                if nxt is None:
                    out.append((_SHIFT, -sid << B, 0, None))
                    continue
                delta = intern(nxt) - sid << B
                sp = shifts[pebble - 1]
                if move < 0:
                    out.append((_JUMP, delta, sp, shifts[-move - 1]))
                    continue
                walk = walks.get((sp, move))
                if walk is None:
                    walk = walks[sp, move] = tuple(
                        [row[move - 1] - v << sp for v, row in enumerate(rho)])
                out.append((_WALK, delta, sp, walk))
            return out

        def plan(sid):
            """The step plan of a sid, ``(_FOLD, 0, sp, x)``: ``sp`` holds
            the shift pairs of ``bp.observed(pt)``, and ``x`` the ``acts``
            by which of them share a node.  A placement-independent state
            reads no pair, and with one step it has that act as its plan."""
            state = states[sid]
            pairs = observed(state[0]) if len(graph[state]) > 1 else ()
            out = (_FOLD, 0, tuple([(shifts[i], shifts[j])
                                    for i, j in pairs]), {})
            if not pairs:  # the same steps on every placement
                by = out[3][0] = acts(sid, 0)
                if len(by) == 1:
                    out = by[0]
            plans[sid] = out
            return out

        def step(c):
            sid = c >> B
            kind, delta, sp, x = plans[sid] or plan(sid)
            # a pebble's node is its field, c >> sp & mask, below bit B
            if kind == _WALK:
                return (c + delta + x[c >> sp & mask],)
            if kind == _JUMP:
                return (c + delta
                        + ((c >> x & mask) - (c >> sp & mask) << sp),)
            if kind != _FOLD:
                return (c + delta,) if kind == _SHIFT else ()
            together = 0  # bit k: the k-th observed pair shares a node
            bit = 1
            for si, sj in sp:
                if c >> si & mask == c >> sj & mask:
                    together += bit
                bit += bit
            by = x.get(together)
            if by is None:
                by = x[together] = acts(sid, together)
            out = []
            for kind, delta, sp, sx in by:
                if kind == _WALK:
                    out.append(c + delta + sx[c >> sp & mask])
                elif kind == _JUMP:
                    out.append(c + delta
                               + ((c >> sx & mask) - (c >> sp & mask) << sp))
                else:
                    out.append(c + delta)
            return out

        def leap(sid):
            """``leaps[sid]`` at a fresh sid, made at the first call: the
            chain of links from ``sid`` as ``(k, delta, walks)``, its
            composed tables shared by the chains that walk along the same
            columns.  The chain runs to its end, since it never meets a sid
            twice: each state on a cycle of fresh sids has its one edge in
            from the cycle, so the search reaches the cycle only if it holds
            the start state, and the start state is never fresh."""
            k, at, links = 0, sid, []
            while True:
                kind, delta, sp, x = plans[at] or plan(at)
                to = at + (delta >> B)
                if kind != _WALK or leaps[to] is None:
                    break
                links.append((sp, x))
                at, k = to, k + 1
            # each x lives in walks as long as the space, so its id is its name
            key = tuple([(sp, id(x)) for sp, x in links])
            walked = chains.get(key)
            if walked is None:
                paths = {}  # shift -> the node each node walks to
                for sp, x in links:
                    paths[sp] = [v + (x[v] >> sp)
                                 for v in paths.get(sp) or range(n)]
                walked = chains[key] = tuple([
                    (sp, tuple([v - u << sp for u, v in enumerate(path)]))
                    for sp, path in paths.items()])
            entry = leaps[sid] = (k, at - sid << B, walked)
            return entry

        def back(c):
            """The predecessor of ``c``, at a fresh sid: at the state of the
            one edge into sid's state, the moved pebble's field walked back
            along the inverse column, whose field changes are made at the
            first ``back`` to need them."""
            sid = c >> B
            entry = backs.get(sid)
            if entry is None:
                pred, pebble, label = sole[states[sid]]
                sp = shifts[pebble - 1]
                unwalk = walks.get((sp, -label))
                if unwalk is None:
                    inverse = [0] * n
                    for u, row in enumerate(rho):
                        inverse[row[label - 1]] = u
                    unwalk = walks[sp, -label] = tuple(
                        [u - v << sp for v, u in enumerate(inverse)])
                entry = backs[sid] = (sids[pred] - sid << B, sp, unwalk)
            delta, sp, unwalk = entry
            return c + delta + unwalk[c >> sp & mask]

        self.step, self.back, self.leap = step, back, leap
        # pebble t on the targetnode, all others on the startnode
        start = g.startnode
        self.initial = intern((0, bp.init_vals)) << B | start * ones + (
            g.targetnode - start << shifts[bp.t_idx - 1])


def interpret(prog: PebbleProgram, g: LabelledGraph,
              limits: Limits = Limits()) -> RunResult:
    """Angelic execution: accept iff some resolution of guesses reaches accept.

    ``machine.run`` over the program's own space (``ProgramSpace``): the
    search and the budgets of every decider, stopped at the first accept
    configuration.  On accept, reports the first-visit order of the curr
    pebble along the accepting run found (None without a curr pebble).
    ``configs_explored`` counts the configurations discovered, each class
    of configurations that differ only in dead variables once, and the
    fresh ones that the search does not store among them.
    """
    return run(ProgramSpace(prog, g), limits)


# ---------------------------------------------------------------------------
# Compiler


def compile_program(prog: PebbleProgram, degree: int) -> NdJag:
    """Compile to an automaton over states (program point, valuation).

    Each transition is one triple of ``BoundProgram.steps`` as a move
    vector, every other pebble jumping to itself.  The machine is
    degree-specific, mirroring the nonuniformity of the model: direction
    domains and move labels are fixed at compile time.  State count is
    bounded by program points times the product of variable domain sizes,
    plus the accept state.

    ``delta`` reads the partition only through ``steps``, so the
    automaton's ``observes`` is ``bp.observed``: no pair at an action
    point, and none at the accept state.  Its states are canonical, as
    ``steps`` gives them and as the start state is.
    """
    bp = prog.bind(degree)
    steps, observed = bp.steps, bp.observed
    selfs = tuple(-(i + 1) for i in range(bp.num_pebbles))

    def observes(state):
        return () if state == _QA else observed(state[0])

    def delta(state, pi):
        return () if state == _QA else tuple([
            (_QA, selfs) if nxt is None
            else (nxt, selfs[:pebble - 1] + (move,) + selfs[pebble:])
            for nxt, pebble, move in steps(*state, pi)])

    return NdJag(start_state=(0, bp.init_vals), accept_state=_QA,
                 num_pebbles=bp.num_pebbles, s=bp.s_idx, t=bp.t_idx,
                 curr=bp.curr_idx, delta=delta, observes=observes)
