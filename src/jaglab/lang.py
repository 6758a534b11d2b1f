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

Acceptance is angelic: a program accepts when some resolution of its guesses
reaches ``accept``.  A step is one pebble action (``move``, ``jump``, or
``accept`` into an accept configuration); control instructions move no
pebble and fold into the actions they reach (``BoundProgram.fold``).  A
program's configurations are the finite product of program point,
variable valuation and pebble placement.  ``ProgramSpace`` packs them into
ints and steps them; ``PebbleProgram.space`` hands it to the searches of
``machine``, so ``interpret`` (``machine.run``), ``verify``,
``check_traversable``, ``check_orderable`` and
``decide_co_st_connectivity`` take a program as they take an automaton,
and cyclic nondeterminism terminates.  The compiler produces an automaton
over states (program point, valuation) whose configuration graph is the
same; every pebble not being acted on jumps to itself.  It serves ``run
--compiled`` and the cross-check of the program's space; its ``delta`` is
a function, not a rule table, so ``serialize_jag`` does not take it.  Both
take their steps from the one fold and the one
``BoundProgram.action``, reset the variables that are dead at a state's
point (``BoundProgram.canon``), and are searched by the one
``machine.expand``, so they count budgets alike.

Pebbles named ``s`` and ``t`` are the designated ones and are added
implicitly when not declared; the designated ``t`` always starts on the
targetnode.  A pebble named ``curr`` is the visit-order pebble.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ProgramError, InputError
from .graph import LabelledGraph
from .machine import Limits, NdJag, PackedSpace, RunResult, run

_TOKEN = re.compile(r"(:=|==|!=|\.\.|[{}:,.=]|[A-Za-z_][A-Za-z0-9_]*|\d+)")
_RESERVED = {"d", "pebble", "dir", "guess", "move", "jump", "visit", "if",
             "else", "while", "for", "fail", "accept", "along", "to", "at",
             "bool", "target", "start", "not", "true", "false"}


# the lines that close a block; only the first block of an if takes _ELSE
_CLOSE, _ELSE = ["}"], ["}", "else", "{"]


def _tokens(line: str, lineno: int) -> list[str]:
    out = []
    pos = 0
    while pos < len(line):
        if line[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(line, pos)
        if not m:
            raise ProgramError(f"cannot tokenize at {line[pos:]!r}",
                               line=lineno)
        out.append(m.group(0))
        pos = m.end()
    return out


@dataclass(frozen=True)
class PebbleProgram:
    """Parsed program: declarations plus the statement tree."""

    pebbles: tuple            # (name, at_target) in declaration order
    dirs: tuple               # (name, domain_spec); spec = ("1..d",) | ("set", vals)
    bools: tuple              # boolean variable names
    body: tuple               # statement tree
    source: str = ""

    def bind(self, degree: int) -> "BoundProgram":
        return _bind(self, degree)

    def space(self, g: LabelledGraph) -> "ProgramSpace":
        """The configurations a search of this program on ``g`` visits."""
        return ProgramSpace(self, g)


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

    pebble_names = {name for name, _ in pebbles}
    dir_names = {name for name, _ in dirs}
    pebble_names |= {"s", "t"}  # designated pebbles exist implicitly

    # collect implicit boolean declarations
    for lineno, toks in lines[idx:]:
        if toks[:1] == ["guess"] and len(toks) == 4 and toks[2] == ":" \
                and toks[3] == "bool":
            name = toks[1]
            if name in pebble_names or name in dir_names:
                raise ProgramError(f"{name!r} already declared", line=lineno)
            if name not in bools:
                if name in _RESERVED:
                    raise ProgramError(f"{name!r} is reserved", line=lineno)
                bools.append(name)
    bool_names = set(bools)

    def need_pebble(name, lineno):
        if name not in pebble_names:
            raise ProgramError(f"undeclared pebble {name!r}", line=lineno)

    def operand(tok, lineno, what):
        """A label or loop bound: a literal, ``d``, or a dir variable."""
        if tok.isdigit():
            return ("lit", int(tok))
        if tok == "d":
            return ("degree",)
        if tok in dir_names:
            return ("var", tok)
        raise ProgramError(f"{tok!r} is not {what}", line=lineno)

    def move(p, tok, lineno):
        label = operand(tok, lineno, "a label or direction variable")
        if label == ("lit", 0):
            raise ProgramError("edge labels start at 1", line=lineno)
        return ("move", p, label, lineno)

    def parse_cond(toks, lineno):
        if len(toks) == 1:
            if toks[0] not in bool_names:
                raise ProgramError(f"{toks[0]!r} is not a boolean variable",
                                   line=lineno)
            return ("var", toks[0])
        if len(toks) == 3 and toks[1] in ("==", "!="):
            need_pebble(toks[0], lineno)
            need_pebble(toks[2], lineno)
            return ("eq" if toks[1] == "==" else "ne", toks[0], toks[2])
        raise ProgramError("malformed condition", line=lineno)

    def block(pos, open_line, closers):
        """The statements from ``pos`` up to their closing line, which must
        be one of ``closers``; returns (statements, closer, next position)."""
        stmts, pos = statements(pos)
        if pos == len(lines):
            raise ProgramError("missing '}' for block", line=open_line)
        lineno, toks = lines[pos]
        if toks not in closers:
            raise ProgramError("unexpected 'else'" if toks == _ELSE
                               else "malformed '}' line", line=lineno)
        return stmts, toks, pos + 1

    def statements(pos):
        """The statements up to the next '}' line, and that line's position."""
        stmts = []
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
                stmts.append(("guess", toks[1], lineno))
            elif head == "move":
                if len(toks) != 4 or toks[2] != "along":
                    raise ProgramError("expected: move <p> along <e>", line=lineno)
                need_pebble(toks[1], lineno)
                stmts.append(move(toks[1], toks[3], lineno))
            elif head == "jump":
                if len(toks) != 4 or toks[2] != "to":
                    raise ProgramError("expected: jump <p> to <q>", line=lineno)
                need_pebble(toks[1], lineno)
                need_pebble(toks[3], lineno)
                stmts.append(("jump", toks[1], toks[3], lineno))
            elif head == "visit":
                if len(toks) != 2:
                    raise ProgramError("expected: visit <p>", line=lineno)
                need_pebble(toks[1], lineno)
                if "curr" not in pebble_names:
                    raise ProgramError("visit needs a declared curr pebble",
                                       line=lineno)
                stmts.append(("jump", "curr", toks[1], lineno))
            elif head == "fail" or head == "accept":
                if len(toks) != 1:
                    raise ProgramError(f"expected: {head}", line=lineno)
                stmts.append((head, lineno))
            elif head == "if" or head == "while":
                if toks[-1] != "{":
                    raise ProgramError("expected '{' at line end", line=lineno)
                cond = parse_cond(toks[1:-1], lineno)
                if head == "while":
                    body, _, pos = block(pos, lineno, (_CLOSE,))
                    stmts.append(("while", cond, body, lineno))
                else:  # only the first block of an if may close with an else
                    body, close, pos = block(pos, lineno, (_CLOSE, _ELSE))
                    else_body = ()
                    if close == _ELSE:
                        else_body, _, pos = block(pos, lineno, (_CLOSE,))
                    stmts.append(("if", cond, body, else_body, lineno))
            elif head == "for":
                # for <id> = <a> to <b> {
                if len(toks) != 7 or toks[2] != "=" or toks[4] != "to" \
                        or toks[6] != "{":
                    raise ProgramError("expected: for <id> = <a> to <b> {",
                                       line=lineno)
                var = toks[1]
                if var not in dir_names:
                    raise ProgramError(f"loop variable {var!r} is not a dir",
                                       line=lineno)
                a = operand(toks[3], lineno, "a loop bound")
                b = operand(toks[5], lineno, "a loop bound")
                body, _, pos = block(pos, lineno, (_CLOSE,))
                stmts.append(("for", var, a, b, body, lineno))
            elif len(toks) >= 3 and toks[1] == ":=":
                need_pebble(head, lineno)
                need_pebble(toks[2], lineno)
                if len(toks) != 3 and (len(toks) != 5 or toks[3] != "."):
                    raise ProgramError("expected: <p> := <q> or <p> := <q>.<e>",
                                       line=lineno)
                stmts.append(("jump", head, toks[2], lineno))
                if len(toks) == 5:  # <p> := <q>.<e> jumps, then moves
                    stmts.append(move(head, toks[4], lineno))
            else:
                raise ProgramError(f"unrecognized statement {head!r}", line=lineno)
        return tuple(stmts), pos

    try:
        body, pos = statements(idx)
    finally:  # the two call each other: break that reference cycle
        block = statements = None
    if pos != len(lines):
        raise ProgramError("unbalanced '}'", line=lines[pos][0])
    return PebbleProgram(tuple(pebbles), tuple(dirs), tuple(bools), body, text)


# ---------------------------------------------------------------------------
# Binding and lowering

_ACTIONS = ("move", "jump", "accept")  # the instructions that are steps


@dataclass(frozen=True)
class BoundProgram:
    """Program lowered to flat instructions for a concrete graph degree."""

    pebble_names: tuple
    s_idx: int
    t_idx: int
    curr_idx: int | None
    var_domains: tuple        # tuple of value tuples
    init_vals: tuple
    instrs: tuple
    # observed(pt) per point, and the variables dead at each point (filled
    # for every point at the first canon), made when asked so that binding
    # stays cheap
    _observed: dict = field(default_factory=dict, init=False, compare=False)
    _dead: list = field(default_factory=list, init=False, compare=False)

    @property
    def num_pebbles(self) -> int:
        return len(self.pebble_names)

    def points(self) -> int:
        return len(self.instrs)

    def fold(self, pt: int, vals: tuple, pi) -> list:
        """The ``(pt, vals)`` pairs at a ``move``, ``jump`` or ``accept``
        that control flow reaches from ``(pt, vals)``, breadth-first.

        Follows every other instruction and drops ``fail``; a seen-set ends
        control-only cycles.  ``pi[i - 1] == pi[j - 1]`` iff pebbles i and
        j share a node, which holds throughout since no pebble moves.
        """
        instrs = self.instrs
        todo = [(pt, vals)]
        seen = set(todo)
        actions = []
        for pt, vals in todo:  # todo grows while it is read
            op = instrs[pt]
            kind = op[0]
            if kind in _ACTIONS:
                actions.append((pt, vals))
                continue
            if kind == "goto":
                nxt = ((op[1], vals),)
            elif kind == "ifvar":
                nxt = ((op[2] if vals[op[1]] else op[3], vals),)
            elif kind == "ifeq":
                together = pi[op[1] - 1] == pi[op[2] - 1]
                nxt = ((op[3] if together else op[4], vals),)
            elif kind == "guess":
                vi = op[1]
                nxt = [(pt + 1, _assign(vals, vi, val))
                       for val in self.var_domains[vi]]
            elif kind == "forstart":
                a, b = _eval_bound(op[2], vals), _eval_bound(op[3], vals)
                nxt = ((op[5], vals),) if a > b else \
                    ((op[4], _assign(vals, op[1], a)),)
            elif kind == "fornext":
                vi = op[1]
                nxt = ((op[4], vals),) if vals[vi] >= _eval_bound(op[2], vals) \
                    else ((op[3], _assign(vals, vi, vals[vi] + 1)),)
            elif kind == "fail":
                continue
            else:  # pragma: no cover
                raise AssertionError(kind)
            for state in nxt:
                if state not in seen:
                    seen.add(state)
                    todo.append(state)
        return actions

    def action(self, pt: int, vals: tuple) -> tuple:
        """``(next, pebble, move)`` for the ``move``, ``jump`` or ``accept``
        at ``(pt, vals)``.  ``next`` is the ``(pt, vals)`` after it, None
        for ``accept``, which moves no pebble.  Otherwise ``pebble`` moves
        as in a move vector: ``+label`` along a label, ``-q`` to pebble q.
        """
        op = self.instrs[pt]
        if op[0] == "accept":
            return None, None, None
        move = -op[2] if op[0] == "jump" else _eval_bound(op[2], vals)
        return (pt + 1, vals), op[1], move

    def observed(self, pt: int) -> tuple:
        """The pebble pairs ``(i, j)``, 0-based with ``i < j``, that
        ``ifeq`` instructions compare on the control paths from ``pt`` to
        the next pebble actions; ``()`` at an action.

        Every branch is followed, whatever the valuation, so ``fold(pt,
        vals, pi)`` reads ``pi`` only at these pairs: for every ``vals``
        its answer depends only on which of them share a node.  A pebble
        compared with itself always does, so that pair is left out.
        """
        pairs = self._observed.get(pt)
        if pairs is not None:
            return pairs
        instrs = self.instrs
        todo = [pt]
        seen = set(todo)
        found = {}
        for q in todo:  # todo grows while it is read
            op = instrs[q]
            kind = op[0]
            if kind in _ACTIONS or kind == "fail":
                continue
            if kind == "goto":
                nxt = (op[1],)
            elif kind == "guess":
                nxt = (q + 1,)
            else:  # ifvar, ifeq, forstart, fornext end with both targets
                nxt = op[-2:]
                if kind == "ifeq" and op[1] != op[2]:
                    found[min(op[1], op[2]) - 1, max(op[1], op[2]) - 1] = None
            for r in nxt:
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        pairs = self._observed[pt] = tuple(found)
        return pairs

    def canon(self, pt: int, vals: tuple) -> tuple:
        """The state ``(pt, vals)`` with every variable dead at ``pt`` reset
        to its domain's first value.

        A variable is live at ``pt`` if some path of instructions from
        ``pt`` reads it before assigning it.  ``ifvar`` reads its variable,
        a ``move`` its label variable, ``forstart`` its bounds and
        ``fornext`` its counter and bound; ``guess`` assigns its variable,
        and ``forstart`` its counter on the edge into the body only.

        Why both routes may search canonical states.  Call ``(pt, v)`` and
        ``(pt, w)`` alike when ``v`` and ``w`` agree on the variables live
        at ``pt``.  Each instruction takes alike states to alike successors,
        the same points in the same order: what it reads is live, and a
        variable live after it is live before it unless it assigns the
        variable, the same value on both sides.  So ``fold`` reaches alike
        actions in the same order of first appearance: a state alike to one
        it met before adds nothing that the earlier one did not add first.
        ``action`` then gives alike next states, which ``canon`` makes
        equal.  Configurations that differ only in dead variables therefore
        have the same successors in the same order, and the breadth-first
        search over canonical configurations meets each class of alike
        configurations when the plain search meets its first member, at the
        same depth and below the class of that member's parent.  Verdicts,
        visit orders and the first accept configuration are the plain
        search's; a configuration count counts the classes.
        """
        dead = (self._dead or self._fill_dead())[pt]
        if dead:
            vals = list(vals)
            for i, first in dead:
                vals[i] = first
            vals = tuple(vals)
        return pt, vals

    def _fill_dead(self) -> list:
        """``_dead[pt]``, the ``(variable, first value)`` pairs of the
        variables dead at ``pt``, from a backward dataflow to a fixpoint."""
        instrs = self.instrs
        flow = []  # per point: (variables read, ((successor, assigned), ...))
        for pt, op in enumerate(instrs):
            kind = op[0]
            if kind == "move":
                flow.append((_var_bit(op[2]), ((pt + 1, 0),)))
            elif kind == "jump":
                flow.append((0, ((pt + 1, 0),)))
            elif kind == "goto":
                flow.append((0, ((op[1], 0),)))
            elif kind == "ifvar":
                flow.append((1 << op[1], ((op[2], 0), (op[3], 0))))
            elif kind == "ifeq":
                flow.append((0, ((op[3], 0), (op[4], 0))))
            elif kind == "guess":
                flow.append((0, ((pt + 1, 1 << op[1]),)))
            elif kind == "forstart":
                flow.append((_var_bit(op[2]) | _var_bit(op[3]),
                             ((op[4], 1 << op[1]), (op[5], 0))))
            elif kind == "fornext":
                flow.append(((1 << op[1]) | _var_bit(op[2]),
                             ((op[3], 0), (op[4], 0))))
            else:  # accept and fail end every path
                flow.append((0, ()))
        live = [0] * len(instrs)  # bit i: variable i is live
        changed = True
        while changed:
            changed = False
            for pt in reversed(range(len(instrs))):
                reads, succ = flow[pt]
                for nxt, assigned in succ:
                    reads |= live[nxt] & ~assigned
                if reads != live[pt]:
                    live[pt] = reads
                    changed = True
        init = self.init_vals
        self._dead[:] = [tuple((i, v) for i, v in enumerate(init)
                               if not mask >> i & 1) for mask in live]
        return self._dead


def _bind(prog: PebbleProgram, degree: int) -> BoundProgram:
    if degree < 1:
        raise InputError("degree must be at least 1")
    pebble_names = [name for name, _ in prog.pebbles]
    for auto in ("s", "t"):
        if auto not in pebble_names:
            pebble_names.append(auto)
    pidx = {name: i + 1 for i, name in enumerate(pebble_names)}
    s_idx, t_idx = pidx["s"], pidx["t"]
    curr_idx = pidx.get("curr")

    var_names = [name for name, _ in prog.dirs] + list(prog.bools)
    vidx = {name: i for i, name in enumerate(var_names)}
    domains = [tuple(range(1, degree + 1)) if spec[0] == "1..d" else spec[1]
               for _, spec in prog.dirs]
    domains += [(False, True)] * len(prog.bools)
    init_vals = tuple(dom[0] for dom in domains)

    def operand(e):
        """A label or loop bound with ``d`` and variables resolved."""
        if e[0] == "degree":
            return ("lit", degree)
        return ("var", vidx[e[1]]) if e[0] == "var" else e

    instrs: list = []

    def emit(op) -> int:
        instrs.append(op)
        return len(instrs) - 1

    def walk(stmts):
        for st in stmts:
            kind = st[0]
            lineno = st[-1]
            if kind == "jump":
                emit(("jump", pidx[st[1]], pidx[st[2]]))
            elif kind == "move":
                label = operand(st[2])
                if label[0] == "lit" and label[1] > degree:
                    raise ProgramError(f"label {label[1]} exceeds degree {degree}",
                                       line=lineno)
                # only variables used as move labels must be degree-closed
                if label[0] == "var" and \
                        any(not 1 <= v <= degree for v in domains[label[1]]):
                    raise ProgramError(
                        f"domain of {st[2][1]!r} not within 1..{degree}",
                        line=lineno)
                emit(("move", pidx[st[1]], label))
            elif kind == "guess":
                emit(("guess", vidx[st[1]]))
            elif kind == "fail":
                emit(("fail",))
            elif kind == "accept":
                emit(("accept",))
            elif kind == "if":
                _, cond, then_b, else_b, _ = st
                at = emit(None)
                walk(then_b)
                if else_b:
                    jp = emit(None)
                    else_pt = len(instrs)
                    walk(else_b)
                    instrs[jp] = ("goto", len(instrs))
                else:
                    else_pt = len(instrs)
                instrs[at] = _branch(cond, at + 1, else_pt, vidx, pidx)
            elif kind == "while":
                _, cond, block, _ = st
                head = emit(None)
                walk(block)
                emit(("goto", head))
                instrs[head] = _branch(cond, head + 1, len(instrs), vidx, pidx)
            elif kind == "for":
                _, var, a, b, block, _ = st
                vi = vidx[var]
                dom = domains[vi]
                if tuple(dom) != tuple(range(dom[0], dom[-1] + 1)):
                    raise ProgramError(
                        f"for-loop variable {var!r} needs a contiguous domain",
                        line=lineno)
                av, bv = operand(a), operand(b)
                # assignments must stay inside the counter's domain
                amin = av[1] if av[0] == "lit" else min(domains[av[1]])
                bmax = bv[1] if bv[0] == "lit" else max(domains[bv[1]])
                if amin < dom[0]:
                    raise ProgramError(
                        f"loop start below domain of {var!r}", line=lineno)
                if bmax > dom[-1]:
                    raise ProgramError(
                        f"loop bound can exceed domain of {var!r}", line=lineno)
                start_pt = emit(None)
                body_pt = len(instrs)
                walk(block)
                next_pt = emit(None)
                exit_pt = len(instrs)
                instrs[start_pt] = ("forstart", vi, av, bv, body_pt, exit_pt)
                instrs[next_pt] = ("fornext", vi, bv, body_pt, exit_pt)
            else:  # pragma: no cover
                raise AssertionError(kind)

    # prologue: non-t pebbles declared "at target" jump to t first
    for name, at_target in prog.pebbles:
        if at_target and pidx[name] != t_idx:
            emit(("jump", pidx[name], t_idx))
    try:
        walk(prog.body)
    finally:  # walk calls itself: break that reference cycle
        walk = None
    emit(("fail",))  # falling off the end rejects
    return BoundProgram(tuple(pebble_names), s_idx, t_idx, curr_idx,
                        tuple(domains), init_vals, tuple(instrs))


def _branch(cond, then_pt, else_pt, vidx, pidx):
    if cond[0] == "var":
        return ("ifvar", vidx[cond[1]], then_pt, else_pt)
    p, q = pidx[cond[1]], pidx[cond[2]]
    if cond[0] == "eq":
        return ("ifeq", p, q, then_pt, else_pt)
    return ("ifeq", p, q, else_pt, then_pt)


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
    ``initial``, ``step``, ``N``, ``n``, ``weights``, ``curr`` (the curr
    pebble, 1-based, or None) and ``decode``.  Its configurations and
    their successors are those of the program's compiled automaton
    (``compile_program``): a state is a canonical ``(pt, vals)`` or the
    accept state ``"qa"``, a step is one pebble action of
    ``BoundProgram.fold`` and ``accept`` steps into the accept state.  The
    compiled automaton's space only numbers the states in another order.

    A configuration is one int, ``sid * N + code``.  The state id ``sid``
    numbers the states ``(pt, vals)`` a configuration can sit at in the
    order the space meets them; the accept state is 0.  States are
    canonical (``bp.canon``): configurations that differ only in variables
    dead at their point share a sid, and a search counts them once.  The
    code ``sum(nodes[i] * n**i)`` writes the placement in radix ``n =
    g.num_nodes``, one digit per pebble, so ``0 <= code < N = n**p`` for p
    pebbles.  Since every digit ``nodes[i]`` lies in ``range(n)``,
    ``divmod(c, N)`` gives back ``sid`` and ``code``, and the radix-n digits
    of ``code`` the placement: the ints are in bijection with the ``(pt,
    vals, nodes)`` triples, and a search, its budgets and its answers are
    those over the triples.  (On a one-node graph every code is 0 and ``c``
    is the sid.)

    Each sid gets a step plan the first time it is stepped.  A pebble
    action is arithmetic on the int: it adds the change of sid times N and
    the change of the acting pebble's digit.  At a control point the fold
    reads the placement only through which of the pairs ``bp.observed(pt)``
    share a node, so its actions are kept per sid and that pattern, reused
    as the same list, for as long as the space lives; the placement is
    decoded only to fill that cache.  Actions that step to the same
    configuration are kept once, as the compiled ``delta`` keeps each
    transition once, so both spaces have the same edges.
    """

    decode = PackedSpace.decode  # reads N, n, weights and states alone

    def __init__(self, prog: PebbleProgram, g: LabelledGraph):
        bp = prog.bind(g.degree)
        rho = g.rho
        instrs, fold, action = bp.instrs, bp.fold, bp.action
        observed, canon = bp.observed, bp.canon
        n = self.n = g.num_nodes
        weights = self.weights = tuple([n ** i for i in range(bp.num_pebbles)])
        N = self.N = n ** bp.num_pebbles
        self.curr = bp.curr_idx
        states = self.states = [_QA]  # sid -> (pt, vals), or the accept state
        sids = {_QA: 0}
        plans: list = [(_END, 0, 0, None)]  # sid -> step plan, None until needed
        walks: dict = {}  # (pebble weight, label) -> digit changes

        def intern(state):
            state = canon(*state)
            sid = sids.get(state)
            if sid is None:
                sid = sids[state] = len(states)
                states.append(state)
                plans.append(None)
            return sid

        def act(nxt, pebble, move, base=0):
            """``bp.action``'s answer as ``(kind, to, wp, x)``: ``to`` is the
            next sid times N less ``base``, ``wp`` the acting pebble's weight,
            and ``x`` the jump target's weight or the digit's change per node
            walked from.  ``accept`` goes to sid 0 and moves no pebble."""
            if nxt is None:
                return _SHIFT, -base, 0, None
            to = intern(nxt) * N - base
            wp = weights[pebble - 1]
            if move < 0:
                return _JUMP, to, wp, weights[-move - 1]
            walk = walks.get((wp, move))
            if walk is None:
                walk = walks[wp, move] = tuple([(row[move - 1] - v) * wp
                                                for v, row in enumerate(rho)])
            return _WALK, to, wp, walk

        def plan(sid):
            """The step plan of a sid, ``(kind, shift, wp, x)``: at an action,
            ``act``'s from base ``sid * N``, so ``c + shift`` has the next sid;
            at a control point, ``wp`` holds the weight pairs of
            ``bp.observed(pt)`` and ``x`` the fold's ``act``s from base 0 by
            which of them share a node."""
            pt, vals = states[sid]
            if instrs[pt][0] in _ACTIONS:
                nxt, pebble, move = action(pt, vals)
                out = act(nxt, pebble, move, sid * N)
            else:
                out = (_FOLD, 0, tuple((weights[i], weights[j])
                                       for i, j in observed(pt)), {})
            plans[sid] = out
            return out

        def step(c):
            sid = c // N
            kind, shift, wp, x = plans[sid] or plan(sid)
            # a digit of c is the digit of its code: N is a multiple of n * wp
            if kind == _WALK:
                return (c + shift + x[c // wp % n],)
            if kind == _JUMP:
                return (c + shift + (c // x % n - c // wp % n) * wp,)
            if kind != _FOLD:
                return (c + shift,) if kind == _SHIFT else ()
            code = c - sid * N
            together = 0  # bit k: the k-th observed pair shares a node
            bit = 1
            for wi, wj in wp:
                if code // wi % n == code // wj % n:
                    together += bit
                bit += bit
            acts = x.get(together)
            if acts is None:
                pt, vals = states[sid]
                nodes = [code // w % n for w in weights]
                acts = x[together] = list(dict.fromkeys(
                    [act(*action(*a)) for a in fold(pt, vals, nodes)]))
            out = []
            for kind, to, wp, wx in acts:
                if kind == _WALK:
                    out.append(to + code + wx[code // wp % n])
                elif kind == _JUMP:
                    out.append(to + code + (code // wx % n - code // wp % n) * wp)
                else:
                    out.append(to + code)
            return out

        self.step = step
        self.initial = intern((0, bp.init_vals)) * N + sum(
            w * (g.targetnode if i + 1 == bp.t_idx else g.startnode)
            for i, w in enumerate(weights))


def interpret(prog: PebbleProgram, g: LabelledGraph,
              limits: Limits = Limits()) -> RunResult:
    """Angelic execution: accept iff some resolution of guesses reaches accept.

    ``machine.run`` over the program's own space (``ProgramSpace``): the
    search and the budgets of every decider, stopped at the first accept
    configuration.  On accept, reports the first-visit order of the curr
    pebble along the accepting run found (None without a curr pebble).
    ``configs_explored`` counts the configurations discovered, each class
    of configurations that differ only in dead variables once.
    """
    return run(ProgramSpace(prog, g), limits)


# ---------------------------------------------------------------------------
# Compiler


def compile_program(prog: PebbleProgram, degree: int) -> NdJag:
    """Compile to an automaton over states (program point, valuation).

    Each transition is one pebble action of ``BoundProgram.fold`` as a move
    vector.  The machine is degree-specific, mirroring the nonuniformity of
    the model: direction domains and move labels are fixed at compile time.
    State count is bounded by program points times the product of variable
    domain sizes, plus the accept state.

    ``delta`` reads the partition only through the fold, so the automaton's
    ``observes`` is ``bp.observed``: no pair at an action point, and none at
    the accept state.  Its states are canonical: ``delta`` passes each next
    state through ``bp.canon``, and the start state, whose variables all
    hold their domain's first value, is canonical already.
    """
    bp = prog.bind(degree)
    instrs, fold, action, observed = bp.instrs, bp.fold, bp.action, bp.observed
    canon = bp.canon
    npeb = bp.num_pebbles
    selfs = tuple(-(i + 1) for i in range(npeb))

    def observes(state):
        return () if state == _QA else observed(state[0])

    def delta(state, pi):
        if state == _QA:
            return ()
        pt, vals = state
        acts = [state] if instrs[pt][0] in _ACTIONS else fold(pt, vals, pi)
        out = {}  # accept reached under several valuations is one transition
        for pt, vals in acts:
            nxt, pebble, move = action(pt, vals)
            if nxt is None:
                out[_QA, selfs] = None
                continue
            moves = list(selfs)
            moves[pebble - 1] = move
            out[canon(*nxt), tuple(moves)] = None
        return tuple(out)

    return NdJag(start_state=(0, bp.init_vals), accept_state=_QA,
                 num_pebbles=npeb, s=bp.s_idx, t=bp.t_idx, curr=bp.curr_idx,
                 delta=delta, observes=observes)
