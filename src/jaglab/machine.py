"""Nondeterministic jumping automata: semantics and the model checker.

An automaton has finitely many states, p pebbles, and a transition relation
keyed on the current state and the incidence partition of the pebbles (which
pebbles share a node) -- the only thing the control can observe.  An
automaton may say that in a state its control reads fewer pebble pairs than
all of them; the configuration-graph build then keys its step table on the
state and the co-location of those pairs alone.  Each transition moves every
pebble simultaneously: along a labelled edge or by a jump to the OLD
position of another pebble.

Moves are encoded as small ints: +i means "follow edge label i", -j means
"jump to pebble j".  Partitions are canonical vectors mapping each pebble to
the least pebble index sharing its node.

Acceptance, traversability ("every accepting run parks the curr pebble on
every node reachable from the startnode"), orderability ("all accepting runs
share the same first-visit sequence of curr") and co-st-connectivity are all
decided by exact reachability over the finite configuration graph, subject
to an explicit configuration budget.  A run is an accepting computation as
soon as it reaches the accept state; traces are cut there, and the deciders
never follow a transition out of an accept configuration.

The searches run over configurations packed into ints, one per
configuration, and the deciders read only those ints.  An automaton's
space is ``PackedSpace``; a pebble program has its own,
``lang.ProgramSpace``, whose configurations are those of its compiled
automaton.  Every search and decider takes the automaton or program and
asks it for its space, ``space(g)``, so this module names no program type.
``expand`` is the one search: it steps a space from ``space.initial`` and
keeps the accept configurations it expands.  ``run`` is ``expand`` stopped
at the first of them, and a ``ConfigGraph`` is what a whole ``expand``
returned.  A configuration's successors are always those ``space.step``
gives it.  A program's space names the configurations that have at most
one possible predecessor (``leaps``); ``expand`` counts them without
storing them, leaps over each chain of them with one lookup, from its
first configuration or from the stored head whose one step enters it,
and a walk up the search tree steps back over them with ``space.back``.
"""

from __future__ import annotations

import enum
import functools
import gc
import itertools
import operator
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import DiagnosticError, InputError, ResourceLimitExceeded
from .graph import LabelledGraph, reachable_set


class Verdict(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    RESOURCE_LIMIT = "resource-limit"


class Configuration(NamedTuple):
    state: object
    nodes: tuple  # nodes[i] is the node of pebble i+1


@dataclass(frozen=True)
class Limits:
    """Search budgets: total configurations and (optionally) run length.

    ``expand`` checks both before each BFS level, in a program's space and
    in an automaton's alike: ``max_configs`` bounds the configurations
    discovered, ``max_run_len`` the depth of the level, i.e. the steps of
    the runs explored.  A pebble program's step is one pebble action
    (``move``, ``jump``, or ``accept`` into an accept configuration); its
    control instructions fold into it.  A search that runs out before it
    reaches an accept configuration yields a resource-limit verdict, never
    a silent answer.
    """

    max_configs: int = 10_000_000
    max_run_len: int | None = None


def partition_of(nodes: tuple) -> tuple:
    """Canonical incidence partition: each pebble's least co-located index."""
    return tuple([nodes.index(v) + 1 for v in nodes])


def all_partitions(p: int):
    """All canonical partition vectors of p pebbles (restricted growth), in
    lexicographic order.  Entry i is a block's least index j + 1 with j <
    i, or i + 1 when pebble i + 1 opens a block.  Each vector follows the
    last by raising its rightmost entry that is not its own index to the
    next value it may take, and setting every entry after it to 1.  A loop,
    not a recursive closure, so a call leaves no reference cycle behind."""
    vec = [1] * p
    while True:
        yield tuple(vec)
        i = p - 1
        while i > 0 and vec[i] == i + 1:
            i -= 1
        if i <= 0:
            return
        vec[i] = next((j + 1 for j in range(vec[i], i) if vec[j] == j + 1),
                      i + 1)
        vec[i + 1:] = [1] * (p - i - 1)


@functools.cache
def _every_pair(p: int) -> tuple:
    """Every pebble pair ``(i, j)`` of p pebbles, 0-based with i < j: what
    a control that reads the whole partition observes."""
    return tuple(itertools.combinations(range(p), 2))


@functools.cache
def _layout(n: int, p: int) -> tuple:
    """The bit fields of p pebbles' nodes on an n-node graph, as both
    spaces pack them: ``(b, mask, shifts, shift pairs, ones)``.  Each node
    takes ``b = (n - 1).bit_length()`` bits, pebble i + 1's at ``shifts[i]
    = b * i``, so its node is ``c >> shifts[i] & mask``; the shift pairs
    are those of ``_every_pair(p)``, and ``ones`` is the code with every
    pebble on node 1, so ``v * ones`` puts them all on node v.  (On a
    one-node graph ``b`` is 0 and every field is empty.)"""
    b = (n - 1).bit_length()
    shifts = tuple([b * i for i in range(p)])
    return (b, (1 << b) - 1, shifts,
            tuple([(shifts[i], shifts[j]) for i, j in _every_pair(p)]),
            sum([1 << s for s in shifts]))


def _checked_pairs(state, pairs, num_pebbles: int) -> tuple:
    """``pairs`` as a tuple; raise ``InputError`` naming ``state`` unless
    every entry is a pebble pair ``(i, j)`` with 0 <= i < j < num_pebbles."""
    try:
        pairs = tuple(pairs)
    except TypeError:
        raise InputError(f"state {state!r} observes {pairs!r}, not a "
                         f"sequence of pebble pairs") from None
    every = _every_pair(num_pebbles)
    for pair in pairs:
        if not (type(pair) is tuple and pair in every
                and type(pair[0]) is int and type(pair[1]) is int):
            raise InputError(f"state {state!r} observes {pair!r}, not a pair "
                             f"(i, j) with 0 <= i < j < {num_pebbles}")
    return pairs


class NdJag:
    """A nondeterministic jumping automaton.

    ``delta`` maps (state, partition) to a tuple of (next_state, moves);
    it may be an explicit dict (absent keys mean no transitions) or a
    callable.  ``observes(state)`` returns the pebble pairs ``(i, j)``,
    0-based with i < j, whose co-location ``delta`` may read in ``state``;
    None, the default, means every pair.  A callable ``delta`` must be a
    function of the state and of the co-location of the pairs
    ``observes(state)`` names: a configuration-graph build asks it once per
    such key, with the partition of the first configuration that has it,
    and reuses the answer for every configuration with that key.  Under
    the default the key determines the partition, so a rule table is read
    as written.  Pebbles s and t are designated; curr is optional and is
    the pebble whose placements define visit orders.
    """

    def __init__(self, start_state, accept_state, num_pebbles: int,
                 s: int = 1, t: int = 2, curr: int | None = None,
                 delta: Mapping | Callable = None, states: tuple | None = None,
                 observes: Callable | None = None):
        if num_pebbles < 1:
            raise InputError("need at least one pebble")
        for name, idx in (("s", s), ("t", t)):
            if not 1 <= idx <= num_pebbles:
                raise InputError(f"designated pebble {name}={idx} out of range")
        if curr is not None and not 1 <= curr <= num_pebbles:
            raise InputError(f"designated pebble curr={curr} out of range")
        self.start_state = start_state
        self.accept_state = accept_state
        self.num_pebbles = num_pebbles
        self.s = s
        self.t = t
        self.curr = curr
        self.states = states
        self.observes = observes
        if callable(delta):
            self.rules = None
            self._fn = delta
        else:
            rules = {k: tuple(v) for k, v in (delta or {}).items()}
            for outs in rules.values():
                for _, moves in outs:
                    _check_moves(moves, num_pebbles)
            self.rules = rules
            self._fn = lambda state, pi: rules.get((state, pi), ())

    def transitions(self, state, pi):
        return self._fn(state, pi)

    def space(self, g: LabelledGraph) -> "PackedSpace":
        """The configurations a search of this automaton on ``g`` visits."""
        return PackedSpace(self, g)


def initial_config(jag: NdJag, g: LabelledGraph) -> Configuration:
    """Pebble t starts on the targetnode, all others on the startnode."""
    nodes = tuple(g.targetnode if i == jag.t else g.startnode
                  for i in range(1, jag.num_pebbles + 1))
    return Configuration(jag.start_state, nodes)


def _check_moves(moves: tuple, num_pebbles: int, degree: int | None = None):
    """Raise ``InputError`` unless ``moves`` has one move per pebble, each a
    jump to a pebble or a label of at most ``degree`` (None: not checked)."""
    if len(moves) != num_pebbles:
        raise InputError("move vector length != pebble count")
    for mv in moves:
        if degree is not None and mv > degree:
            raise InputError(f"move label {mv} exceeds degree {degree}")
        if mv == 0 or mv < -num_pebbles:
            raise InputError(f"bad move encoding {mv}")


def apply_moves(g: LabelledGraph, nodes: tuple, moves: tuple) -> tuple:
    """All moves read the old placement; jumps and edge-walks are simultaneous.

    The checked step of the run-tree oracle (``enumerate_runs``,
    ``replay_curr_visits``); the configuration-graph build has its own, in
    ``PackedSpace``.
    """
    _check_moves(moves, len(nodes), g.degree)
    return tuple(g.rho[v][mv - 1] if mv > 0 else nodes[-mv - 1]
                 for v, mv in zip(nodes, moves))


class PackedSpace:
    """The configurations of one automaton on one graph, packed into ints,
    and their successor function: what a search of the automaton visits
    (``NdJag.space``).

    A configuration is one int, ``sid << B | code``, as in
    ``lang.ProgramSpace``.  The state id ``sid`` numbers the automaton's states
    in the order the space meets them: 0 is ``jag.accept_state``, so ``c``
    is an accept configuration iff ``c < N = 1 << B``; the start state comes
    next, then each next state of a transition when its key enters the
    table.  States are told apart as dict keys are.  The code ``sum(nodes[i]
    << shifts[i])`` gives each pebble a bit field of ``b = (n -
    1).bit_length()`` bits, ``n = g.num_nodes`` (``_layout``), so ``0 <=
    code < N`` with ``B = b * p`` for p pebbles, and pebble i + 1 sits on
    ``c >> shifts[i] & mask``.  ``encode`` and ``decode`` are the bijection
    with ``Configuration``s.  (On a one-node graph every code is 0 and
    ``c`` is the sid.)  The layout fixes only the values of the ints: the
    order in which a search meets configurations, and so every answer,
    depends on their identity alone.  ``curr`` is the automaton's curr
    pebble, 1-based, or None.

    ``step(c)`` lists the successors of ``c`` (empty: dead), in the order
    ``jag.transitions`` gives them.  In a state the control sees only which
    of the pairs ``jag.observes(state)`` share a node (every pair when
    ``observes`` is None), so the table that lives as long as the space
    holds, per sid, ``(pairs, shift pairs, plans)``: ``pairs`` is that
    answer, checked when a configuration of the state is first stepped, and
    ``plans`` maps a key ``bits``, with bit k set when the k-th pair shares
    a node, read off the fields of ``c``, to the state's plans.
    ``jag.transitions`` is asked once per ``(state, bits)``, with the
    partition of the first configuration that has it, and ``partition_of``
    runs only then.  Each move vector is checked when its key enters the
    table, i.e. at the first configuration that would apply it: its labels
    against the degree and, since a callable ``delta`` is not checked when
    the automaton is made, its length and encoding.

    The table holds a sparse plan per transition, ``(delta, steps)``:
    ``delta`` is the change of sid times N, and ``steps`` lists only the
    pebbles that can move, by the shift s of their field, as ``(s, label -
    1, 1 << s)`` for an edge-walk and ``(s, ~s_j, 1 << s)`` for a jump to
    pebble j; each adds the change of the field at s, read off the old
    placement, times ``1 << s`` (on the small ints of small graphs
    CPython multiplies faster than it shifts).  A jump to the
    pebble itself, or to one that the key shows on the same node (the pair
    is observed and its bit set), cannot change the placement, so it is
    dropped when the entry is filled.  A jump between two pebbles of an
    unobserved pair is kept even where they share a node: another
    configuration with the same key may hold them apart.

    The space knows no state's predecessors before its search ends, so it
    has no fresh states (``leaps`` is empty, see ``lang.ProgramSpace``)
    and a search stores every configuration it discovers.
    """

    leaps = ()

    def __init__(self, jag: NdJag, g: LabelledGraph):
        p = jag.num_pebbles
        n = self.n = g.num_nodes
        b, mask, shifts, every_s, ones = _layout(n, p)
        self.mask, self.shifts = mask, shifts
        B = self.B = b * p
        self.N = 1 << B
        self.curr = jag.curr
        states = self.states = [jag.accept_state]  # sid -> state
        sids = {jag.accept_state: 0}
        table = [None]  # sid -> (pairs, their shift pairs, plans by bits)
        transitions = jag.transitions
        observes = jag.observes
        every = _every_pair(p) if observes is None else None
        rho = g.rho
        degree = g.degree

        def intern(state):
            sid = sids.get(state)
            if sid is None:
                sid = sids[state] = len(states)
                states.append(state)
                table.append(None)
            return sid

        def fill(sid):
            if observes is None:
                entry = table[sid] = (every, every_s, {})
                return entry
            pairs = observes(states[sid])
            if pairs != ():  # () needs no check: most program states have it
                pairs = _checked_pairs(states[sid], pairs, p)
            entry = table[sid] = (pairs, tuple([(shifts[i], shifts[j])
                                                for i, j in pairs]), {})
            return entry

        def plan(sid, c, pairs):
            nodes = tuple([c >> s & mask for s in shifts])
            outs = []
            for nxt, moves in transitions(states[sid], partition_of(nodes)):
                _check_moves(moves, p, degree)
                steps = []
                i = 0
                for mv in moves:
                    if mv > 0:
                        steps.append((shifts[i], mv - 1, 1 << shifts[i]))
                    elif nodes[~mv] != nodes[i]:
                        steps.append((shifts[i], ~shifts[~mv], 1 << shifts[i]))
                    # co-located: the key shows it only if the pair is
                    # observed, as every pair is under the default
                    elif ~mv != i and pairs is not every and \
                            ((i, ~mv) if i < ~mv else (~mv, i)) not in pairs:
                        steps.append((shifts[i], ~shifts[~mv], 1 << shifts[i]))
                    i += 1
                to = sids.get(nxt)
                if to is None:
                    to = intern(nxt)
                outs.append(((to - sid) << B, tuple(steps)))
            return tuple(outs)

        def step(c):
            sid = c >> B
            pairs, spairs, by_bits = table[sid] or fill(sid)
            bits = 0
            bit = 1
            for si, sj in spairs:
                if c >> si & mask == c >> sj & mask:
                    bits += bit
                bit += bit
            plans = by_bits.get(bits)
            if plans is None:
                plans = by_bits[bits] = plan(sid, c, pairs)
            out = []
            for delta, steps in plans:
                s = c + delta
                for at, m, w in steps:
                    v = c >> at & mask
                    s += ((rho[v][m] if m >= 0 else c >> ~m & mask) - v) * w
                out.append(s)
            return out

        self.step = step
        self._intern = intern
        # initial_config: pebble t on the targetnode, all others on the
        # startnode
        start = g.startnode
        self.initial = intern(jag.start_state) << B | start * ones + (
            g.targetnode - start << shifts[jag.t - 1])

    def encode(self, config: Configuration) -> int:
        """The int of ``config``; ``InputError`` unless it places every
        pebble on a node of the graph, since any other placement would pack
        into the int of another configuration."""
        nodes = config.nodes
        if len(nodes) != len(self.shifts) or \
                not all(type(v) is int and 0 <= v < self.n for v in nodes):
            raise InputError(f"{nodes!r} places {len(self.shifts)} pebbles "
                             f"on no nodes of a {self.n}-node graph")
        return self._intern(config.state) << self.B | sum(
            v << s for v, s in zip(nodes, self.shifts))

    def decode(self, c: int) -> Configuration:
        mask = self.mask
        # tuple.__new__ skips the Python-level NamedTuple constructor
        return tuple.__new__(Configuration, (
            self.states[c >> self.B], tuple([c >> s & mask
                                             for s in self.shifts])))


@dataclass
class ConfigGraph:
    """Explicit configuration graph: what ``expand`` returned for the
    packed configurations of ``space``, the BFS tree, the edges it leaves
    out and the accept configurations.  ``jag`` is the automaton or pebble
    program whose space was searched, and the deciders take the graph only
    with that same object.

    ``parent``, ``merges``, ``accepting``, ``limit_hit`` and ``fresh`` are
    as ``expand`` gives them.  Together ``parent``, ``merges`` and the
    fresh configurations that ``parent`` leaves out (each with the one
    edge into it, from ``space.back``) hold every edge of the graph
    searched; the edges out of one configuration are those ``space.step``
    gives it, whose table outlives the build, so stepping a configuration
    the build expanded again asks the automaton nothing.  ``limit_hit`` is
    None when the graph is complete.  ``configs_explored`` counts the
    configurations discovered, stored or fresh, as ``max_configs`` and
    ``run`` do.

    The deciders read only these ints, ``space.step`` and ``space.back``.
    ``initial`` and ``adj`` decode them to ``Configuration``s for the
    benchmark harness's build counts (``perfbench/bench.py::_graph_counts``);
    both go when ROADMAP item F moves those counts to the packed data.
    """

    jag: object  # an NdJag or a lang.PebbleProgram
    graph: LabelledGraph
    space: object  # jag.space(graph)
    parent: dict
    merges: list
    accepting: list
    limit_hit: str | None = None
    fresh: int = 0

    @property
    def configs_explored(self) -> int:
        return len(self.parent) + self.fresh

    @property
    def initial(self) -> Configuration:
        """``space.initial`` decoded; goes with ``adj``."""
        return self.space.decode(self.space.initial)

    @functools.cached_property
    def adj(self) -> dict:
        """Each configuration the build expanded, in BFS order, mapped to
        the list of its ``space.step`` successors, all decoded; kept once
        read.  On a complete graph every configuration discovered was
        expanded, fresh ones included.  A budget stops the build before it
        expands the last level discovered, so that level is left out.

        The levels are walked forward from ``space.initial`` again, since
        ``parent`` leaves the fresh configurations out; the walk expands a
        level unless a budget ran out and all ``configs_explored``
        configurations are discovered, which the build's were only when it
        stopped.  Goes when ROADMAP item F counts the build from the packed
        data.
        """
        decode, step = self.space.decode, self.space.step
        level = [self.space.initial]
        seen = set(level)
        succs = {}
        while level and (self.limit_hit is None
                         or len(seen) < self.configs_explored):
            nxt = []
            for c in level:
                out = succs[c] = step(c)
                for s in out:
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            level = nxt
        conf = {c: decode(c) for c in seen}
        return {conf[c]: [conf[s] for s in out] for c, out in succs.items()}


def expand(space, limits: Limits, stop_at_accept: bool = False
           ) -> tuple[dict, list, list, str | None, int]:
    """Breadth-first search of ``space`` from ``space.initial``, one level
    at a time, stepping each configuration with ``space.step``.

    Every configuration graph and every run are searched by it, so a
    budget means the same thing to every caller.
    Before each level the search stops with a limit hit if more than
    ``limits.max_configs`` configurations, stored or fresh, have been
    discovered (``"max_configs"``) or if the level lies deeper than
    ``limits.max_run_len`` steps (``"max_run_len"``).  An expanded
    configuration below ``space.N`` is an accept configuration; with
    ``stop_at_accept`` the search ends at the first one, once its
    successors are known, with no limit hit.  The step comes first, so a
    move out of the accept state that the step rejects raises either way.

    The cyclic garbage collector is paused for the search: configurations
    and successor lists hold no reference cycles, so its passes, which
    grow with the heap, would find nothing to free.  The caller's collector
    state is restored however the search ends, by a return or an
    exception.

    A successor whose sid holds a leap ``(k, delta, walks)`` with k >= 0
    in ``space.leaps`` (None: no leap) is fresh: it has no other possible
    predecessor (``lang.ProgramSpace`` says why), so no other edge can
    reach it, and the search counts it in ``fresh`` but does not store
    it.  Every other configuration is stored.
    If the chain from its sid has k > 0 links, the search puts in its
    place in the next level a slot that stands for the chain: the negative
    int ``~end``, with the chain's end, which is unique since a fresh
    configuration is discovered once.  A successor at a head, whose leap
    has -k < 0 for its own walk and the k - 1 links after it, is stored
    first, as any other, and an edge into it later is a merge; when it is
    new, the slot of its k walks stands in its place, so the search steps
    neither the head nor the fresh configuration its one step enters.  The
    slot goes into the ``due`` bucket of the level at which its end is
    stepped, k levels below the next.  Until then it stands where the link
    or the head would, and does what stepping it would do: it counts the
    one configuration the step discovers, fresh, and passes on to the next
    level unchanged.  A link or a head has no other successor and is never
    an accept configuration, so each level keeps its length and its order.
    A level with slots steps only its plain entries, whose positions were
    kept as they were appended, and its due slots, found with
    ``list.index`` and sorted in among them; each run of slots between two
    of those is copied on with one slice and counted with one addition, in
    order, so ``fresh`` is exact whenever the search stops.  A level with
    no slot steps every entry in turn, through the same loop, and the
    positions are kept only while a slot is due.  The counts that the
    budgets read before each level, the levels, the order within them,
    merges, accept configurations and budgets are those of a search that
    stores and steps everything.  An automaton's space has no fresh sids
    (``leaps`` is empty), so its search meets no slot.

    Returns ``(parent, merges, accepting, limit_hit, fresh)``: ``parent``
    maps every stored configuration discovered to the one it was first
    reached from (the initial one to None), and ``space.back`` gives a
    fresh one's; ``merges`` lists, in the order they were followed, the
    edges ``(config, successor)`` into a configuration already discovered,
    the only edges the tree does not hold; ``accepting`` lists the accept
    configurations expanded, in BFS order; ``limit_hit`` names the budget
    that ran out, or is None; and ``fresh`` counts the fresh configurations
    discovered.
    """
    N, B, step, initial = space.N, space.B, space.step, space.initial
    leaps, mask = space.leaps, space.mask
    collecting = gc.isenabled()
    gc.disable()
    try:
        parent = {initial: None}
        merges = []
        accepting = []
        fresh = 0
        # level -> the slots whose ends it steps; a slot stays in every
        # level until its own, so a level holds slots iff due is not empty
        due = defaultdict(list)

        def passing(frontier, stepped, nxt):
            """The entries to step of a level with slots, at the
            positions ``stepped``, in order: its plain entries and, for a
            due slot, its end.  The run of slots before each is copied on
            to ``nxt`` with one slice and counted in ``fresh`` with one
            addition."""
            nonlocal fresh
            done = 0
            for i in stepped:
                if i != done:
                    nxt += frontier[done:i]
                    fresh += i - done
                done = i + 1
                config = frontier[i]
                yield config if config >= 0 else ~config
            nxt += frontier[done:]
            fresh += len(frontier) - done

        # stepped: the positions of the level's plain entries, kept only
        # while a slot is due, since a level with none walks every entry
        frontier, stepped = [initial], []
        depth = 0
        while frontier:
            if len(parent) + fresh > limits.max_configs:
                return parent, merges, accepting, "max_configs", fresh
            if limits.max_run_len is not None and depth > limits.max_run_len:
                return parent, merges, accepting, "max_run_len", fresh
            nxt = []
            at = []  # the positions of the next level's plain entries
            todo = frontier
            if due:
                ends = due.pop(depth, None)
                if ends:
                    stepped += map(frontier.index, ends)
                    stepped.sort()
                todo = passing(frontier, stepped, nxt)
            for config in todo:
                succs = step(config)
                if config < N:
                    accepting.append(config)  # sid 0, the accept state
                    if stop_at_accept:
                        return parent, merges, accepting, None, fresh
                for s in succs:
                    if leaps and (leap := leaps[s >> B]) is not None:
                        links, delta, walks = leap
                        if links >= 0:
                            fresh += 1
                        elif s in parent:  # a head, discovered before
                            merges.append((config, s))
                            continue
                        else:  # a head: stored, and leapt from unstepped
                            parent[s] = config
                            links = -links
                        if links:
                            end = s + delta
                            for sp, walk in walks:
                                end += walk[s >> sp & mask]
                            slot = ~end
                            if not due:  # the first slot: all before are plain
                                at += range(len(nxt))
                            due[depth + 1 + links].append(slot)
                            nxt.append(slot)
                        else:
                            if due:
                                at.append(len(nxt))
                            nxt.append(s)
                    elif s not in parent:
                        parent[s] = config
                        if due:
                            at.append(len(nxt))
                        nxt.append(s)
                    else:
                        merges.append((config, s))
            frontier, stepped = nxt, at
            depth += 1
        return parent, merges, accepting, None, fresh
    finally:
        if collecting:
            gc.enable()


def first_visits(parent: dict, config, space) -> tuple | None:
    """First-visit order of the curr pebble along the search-tree path from
    ``space.initial`` to ``config``, or None if ``space`` has no curr
    pebble.  ``parent`` is the map ``expand`` returns; the path steps up
    over a fresh configuration, which it leaves out, with ``space.back``."""
    if space.curr is None:
        return None
    s, mask = space.shifts[space.curr - 1], space.mask
    path = []
    while config is not None:
        path.append(config >> s & mask)
        above = parent.get(config, -1)  # -1: fresh, not stored
        config = above if above != -1 else space.back(config)
    return tuple(dict.fromkeys(reversed(path)))


@dataclass(frozen=True)
class RunResult:
    verdict: Verdict
    visit_order: tuple | None
    configs_explored: int


def run(space, limits: Limits = Limits()) -> RunResult:
    """One run of ``space``'s automaton or program: ``expand`` stopped at
    the first accept configuration.

    On accept, reports the first-visit order of the curr pebble along the
    BFS-shortest accepting run (None without a curr pebble).  ``expand``
    checks both budgets before each level, so that configuration is the
    first one a whole build lists in ``ConfigGraph.accepting``, under
    every budget: stopping there changes no verdict and no order.
    ``configs_explored`` counts the configurations discovered, the fresh
    ones that ``expand`` does not store included.
    """
    parent, _, accepting, limit_hit, fresh = expand(space, limits,
                                                    stop_at_accept=True)
    explored = len(parent) + fresh
    if not accepting:
        verdict = Verdict.RESOURCE_LIMIT if limit_hit else Verdict.REJECT
        return RunResult(verdict, None, explored)
    return RunResult(Verdict.ACCEPT, first_visits(parent, accepting[0], space),
                     explored)


def build_config_graph(jag: NdJag, g: LabelledGraph,
                       limits: Limits = Limits()) -> ConfigGraph:
    """Breadth-first exhaustive expansion of the configuration space.

    ``jag`` is an automaton or a pebble program; the search is
    ``expand``'s over the ints of its space, ``jag.space(g)``, so the depth
    of a configuration is the run length that ``limits.max_run_len``
    bounds.  Accept-state configurations are expanded too; the deciders
    ignore their successors.  The graph is what ``expand`` returns, a BFS
    tree without the fresh configurations, their count, the edges it
    leaves out and the accept configurations; no successor list outlives
    the search, and a decider that needs a configuration's successors
    steps it again through the space's table.
    """
    space = jag.space(g)
    return ConfigGraph(jag, g, space, *expand(space, limits))


def _graph_for(jag, g: LabelledGraph, limits: Limits,
               config_graph: ConfigGraph | None,
               what: str | None = None) -> ConfigGraph:
    """The configuration graph a decider reads: the one passed in, which
    must belong to ``jag`` and ``g``, or a new one.  A curr decider names
    itself in ``what``: the space must designate curr, which is checked
    before any build, and the graph must be complete."""
    if config_graph is None:
        space = jag.space(g)
    elif config_graph.jag is not jag or config_graph.graph != g:
        raise InputError("config_graph was built for another automaton or graph")
    else:
        space = config_graph.space
    if what is not None and space.curr is None:
        raise InputError(f"{what} needs a designated curr pebble")
    cg = config_graph
    if cg is None:
        cg = ConfigGraph(jag, g, space, *expand(space, limits))
    if what is not None and cg.limit_hit:
        raise ResourceLimitExceeded(f"{cg.limit_hit} budget exhausted")
    return cg


def accepts(jag: NdJag, g: LabelledGraph, limits: Limits = Limits(),
            config_graph: ConfigGraph | None = None) -> Verdict:
    """Accept iff some configuration with the accept state is reachable."""
    cg = _graph_for(jag, g, limits, config_graph)
    if cg.accepting:
        return Verdict.ACCEPT
    return Verdict.RESOURCE_LIMIT if cg.limit_hit else Verdict.REJECT


def enumerate_runs(jag: NdJag, g: LabelledGraph, max_len: int,
                   max_tree_nodes: int = 1_000_000) -> frozenset:
    """All accepting computations of length <= max_len.

    Each trace is the tuple of chosen transitions, i.e. (state, move-vector)
    pairs, which pins the computation exactly.  Independent oracle for
    ``accepts``: a plain run-tree search with no visited-set, so it shares
    nothing with the reachability route.  Runs end at their first
    accept-state configuration.
    """
    traces = set()
    expanded = 0
    stack = [(initial_config(jag, g), ())]
    while stack:
        (state, nodes), trace = stack.pop()
        if state == jag.accept_state:
            traces.add(trace)
        elif len(trace) < max_len:
            expanded += 1
            if expanded > max_tree_nodes:
                raise ResourceLimitExceeded("run-tree budget exhausted")
            for nxt, moves in jag.transitions(state, partition_of(nodes)):
                stack.append((Configuration(nxt, apply_moves(g, nodes, moves)),
                              trace + ((nxt, moves),)))
    return frozenset(traces)


def replay_curr_visits(jag: NdJag, g: LabelledGraph,
                       trace: Iterable[tuple]) -> tuple:
    """First-visit sequence of the curr pebble along an enumerated trace."""
    if jag.curr is None:
        raise InputError("automaton designates no curr pebble")
    nodes = initial_config(jag, g).nodes
    order = {nodes[jag.curr - 1]: None}  # a dict keeps first insertions
    for _, moves in trace:
        nodes = apply_moves(g, nodes, moves)
        order.setdefault(nodes[jag.curr - 1])
    return tuple(order)


def accepting_run_visits(cg: ConfigGraph) -> tuple | None:
    """First-visit order of curr along the BFS-shortest accepting run; None
    if none accepts or the space has no curr pebble."""
    if not cg.accepting:
        return None
    return first_visits(cg.parent, cg.accepting[0], cg.space)


def _accept_values(cg: ConfigGraph, value, extend: Callable, join: Callable):
    """Yield the values that runs of a complete configuration graph carry
    into accept configurations.

    Configurations are the packed ints of ``cg``.  ``value`` belongs to the
    initial configuration; ``extend(value, config)`` is the value of a run
    once it enters ``config``.  Each configuration
    keeps one value, the ``join`` of the values of every run entering it;
    this is exact when ``extend`` distributes over ``join``.  Runs end at
    their first accept configuration, so an edge out of one belongs to no
    run, and an accept configuration that only such edges reach yields
    nothing.  An accept configuration's value is yielded again whenever it
    changes, and the last one is final; since a join only moves a value
    one way, a caller may stop at the first value that settles its answer.

    A configuration's tree value is ``extend`` folded down its one path in
    the BFS tree from the initial configuration, None if that path passes
    through an accept configuration.  ``tree_value`` walks up ``parent``,
    and over a fresh configuration with ``space.back``, and keeps each
    value it finds, so the work is at most one step per configuration.
    Each accept configuration yields its tree value, in BFS order; a graph
    without merges is that tree, and that is all.  With merges,
    ``_carried_values`` starts from the merge sources that runs reach
    along the tree and carries their values on along every edge.
    """
    N = cg.space.N  # below it: an accept configuration
    parent = cg.parent
    tree = {cg.space.initial: value}

    def tree_value(config):
        path = []
        while config not in tree:
            path.append(config)
            above = parent.get(config, -1)  # -1: fresh, not stored
            config = above if above != -1 else cg.space.back(config)
        v = tree[config]
        for c in reversed(path):
            if v is not None:  # None: the run along the tree ended above
                v = None if config < N else extend(v, c)
            tree[c] = v
            config = c
        return v

    for config in cg.accepting:
        v = tree_value(config)
        if v is not None:
            yield v
    if cg.merges:
        work = [config for config, _ in cg.merges
                if config >= N and tree_value(config) is not None]
        if work:
            yield from _carried_values(cg, work, tree_value, extend, join)


def _carried_values(cg: ConfigGraph, work: list, tree_value: Callable,
                    extend: Callable, join: Callable):
    """The worklist of ``_accept_values``: carry the value of each
    configuration in ``work``, at first its ``tree_value``, along every
    edge out of it, and on from each configuration whose value changes,
    until none does.  A configuration's value so far is the join of the
    values of the runs carried into it and of its tree value (None: no run
    along the tree enters it).  An accept configuration passes nothing on;
    its value is yielded each time it is taken from the worklist.

    The edges out of a configuration are ``cg.space.step``'s.  A
    program's space holds every plan from the start, and an automaton's
    graph is complete, so its build made the plan of every configuration
    the worklist takes by stepping it; the step's table outlives the
    build, so a step again asks the automaton nothing and gives the edges
    the build followed.
    """
    N = cg.space.N
    step = cg.space.step
    values = {config: tree_value(config) for config in work}
    work = deque(work)
    while work:
        config = work.popleft()
        value = values[config]
        if config < N:
            yield value
            continue
        for s in step(config):
            old = values[s] if s in values else tree_value(s)
            new = extend(value, s)
            if old is not None:
                new = join(old, new)
                if new == old:
                    continue
            values[s] = new
            work.append(s)


def _curr_pass(cg: ConfigGraph, order: tuple):
    """Yield ``(covers, follows)`` for each value ``_accept_values`` carries
    into an accept configuration of a complete configuration graph.

    A value is one int: the bitset of nodes that curr occupies on every run
    to the configuration (a must-visit dataflow, as in Cooper, Harvey and
    Kennedy's dominance algorithm), plus an "on order" bit at position
    ``num_nodes``, set while no run has left ``order``, the first-visit
    sequence of some accepting run.  The join is ``&``.  On order, each
    run's visited set is a prefix of ``order``; the join keeps the shortest,
    and a run with a shorter prefix goes wrong wherever a longer one does,
    so the join is exact.  ``covers``: the bitset holds every node reachable
    from the startnode.  ``follows``: every run is on order and has visited
    all of it.  Neither comes back once false.
    """
    g = cg.graph
    s, mask = cg.space.shifts[cg.space.curr - 1], cg.space.mask
    on = 1 << g.num_nodes
    need = sum(1 << v for v in reachable_set(g, g.startnode))
    # nexts[k]: the bit of the node after a prefix of length k (0: none)
    nexts = [1 << v for v in order] + [0]
    complete = on | sum(nexts)

    def extend(value, config):
        bit = 1 << (config >> s & mask)  # curr's node: its field of config
        if value & bit:
            return value
        if value & on and bit != nexts[value.bit_count() - 1]:
            value ^= on
        return value | bit

    # the canonical order starts at curr's initial node by construction
    for value in _accept_values(cg, on | 1 << (cg.space.initial >> s & mask),
                                extend, operator.and_):
        yield value & need == need, value == complete


def check_traversable(jag: NdJag, g: LabelledGraph, limits: Limits = Limits(),
                      config_graph: ConfigGraph | None = None):
    """Decide traversability; returns (flag, first-visit witness or None).

    True iff the automaton accepts and every accepting run places curr on
    every node reachable from the startnode.
    """
    cg = _graph_for(jag, g, limits, config_graph, "traversability")
    order = accepting_run_visits(cg)
    return (order is not None
            and all(covers for covers, _ in _curr_pass(cg, order))), order


def check_orderable(jag: NdJag, g: LabelledGraph, limits: Limits = Limits(),
                    config_graph: ConfigGraph | None = None):
    """Decide whether all accepting runs share one first-visit order;
    returns (flag, canonical first-visit order).

    The canonical order is that of the BFS-shortest accepting run (None if
    none accepts); the flag is true iff every accepting run shares it.  This
    is only the shared-order half of orderability: it does not check
    traversability.  ``verify`` reports ``orderable`` as traversable and
    shared, so an automaton that jumps ``curr`` straight to the targetnode
    gets a true flag here and ``orderable: false`` from ``verify``.
    """
    cg = _graph_for(jag, g, limits, config_graph, "orderability")
    order = accepting_run_visits(cg)
    return (order is not None
            and all(follows for _, follows in _curr_pass(cg, order))), order


def decide_co_st_connectivity(jag: NdJag, g: LabelledGraph,
                              limits: Limits = Limits(),
                              config_graph: ConfigGraph | None = None) -> str:
    """"connected" iff some accepting run places curr on the targetnode.

    The supplied automaton must be traversable on the input's family; if it
    does not even accept, that assumption is broken and a DiagnosticError is
    raised rather than guessing.
    """
    cg = _graph_for(jag, g, limits, config_graph, "co-st-connectivity")
    if not cg.accepting:
        raise DiagnosticError("supplied automaton rejects: traversability violated")
    s, mask = cg.space.shifts[cg.space.curr - 1], cg.space.mask
    tgt = g.targetnode
    touched = _accept_values(cg, cg.space.initial >> s & mask == tgt,
                             lambda t, c: t or c >> s & mask == tgt,
                             operator.or_)
    return "connected" if any(touched) else "disconnected"


@dataclass(frozen=True)
class VerificationReport:
    verdict: Verdict
    traversable: bool | None
    orderable: bool | None
    visit_order: tuple | None
    configs_explored: int
    limits_hit: tuple = ()

    def to_text(self) -> str:
        def fmt(v):
            if v is None:
                return "unknown"
            if isinstance(v, bool):
                return "true" if v else "false"
            return str(v)
        order = "" if self.visit_order is None else \
            " ".join(str(v) for v in self.visit_order)
        lines = [
            f"verdict: {self.verdict.value}",
            f"traversable: {fmt(self.traversable)}",
            f"orderable: {fmt(self.orderable)}",
            f"visit_order: {order}",
            f"configs_explored: {self.configs_explored}",
            f"limits_hit: {','.join(self.limits_hit) or 'none'}",
        ]
        return "\n".join(lines) + "\n"


def verify(jag: NdJag, g: LabelledGraph,
           limits: Limits = Limits()) -> VerificationReport:
    """Full report: acceptance, traversability, orderability, visit order."""
    cg = build_config_graph(jag, g, limits)
    if cg.limit_hit:
        return VerificationReport(Verdict.RESOURCE_LIMIT, None, None, None,
                                  cg.configs_explored, (cg.limit_hit,))
    verdict = Verdict.ACCEPT if cg.accepting else Verdict.REJECT
    traversable = orderable = None
    visit_order = None
    if cg.space.curr is not None:
        visit_order = accepting_run_visits(cg)
        traversable = orderable = visit_order is not None
        for covers, follows in _curr_pass(cg, visit_order) if visit_order else ():
            if not covers:  # neither flag can hold now
                traversable = orderable = False
                break
            orderable = orderable and follows
    return VerificationReport(verdict, traversable, orderable, visit_order,
                              cg.configs_explored)


# ---------------------------------------------------------------------------
# Interchange format

def serialize_jag(jag: NdJag) -> str:
    """Text form of a rule-table automaton (states must be strings)."""
    if jag.rules is None:
        raise InputError("only rule-table automata can be serialized")
    states = jag.states
    if states is None:
        seen = [jag.start_state, jag.accept_state]
        for (state, _), outs in jag.rules.items():
            seen.append(state)
            seen.extend(nxt for nxt, _ in outs)
        states = tuple(dict.fromkeys(seen))
    lines = [
        "states " + " ".join(states),
        f"start {jag.start_state}",
        f"accept {jag.accept_state}",
        f"pebbles {jag.num_pebbles}",
        f"designate s={jag.s} t={jag.t}"
        + (f" curr={jag.curr}" if jag.curr is not None else ""),
    ]
    for (state, pi), outs in sorted(jag.rules.items(),
                                    key=lambda kv: (str(kv[0][0]), kv[0][1])):
        for nxt, moves in outs:
            mv = " ".join(f"m{m}" if m > 0 else f"j{-m}" for m in moves)
            lines.append(f"{state} {','.join(map(str, pi))} -> {nxt} {mv}")
    return "\n".join(lines) + "\n"


def _jag_int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise InputError(f"line {lineno}: {what} must be an integer, "
                         f"got {tok!r}") from None


def parse_jag(text: str) -> NdJag:
    header = {}  # each header line and designation, set at most once
    rule_lines = []  # (line, state, partition, next state, moves)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] in ("start", "accept", "pebbles") and len(toks) != 2:
            raise InputError(f"line {lineno}: {toks[0]} takes one argument")
        if toks[0] in ("states", "start", "accept", "pebbles"):
            if toks[0] in header:
                raise InputError(f"line {lineno}: repeated {toks[0]} line")
            if toks[0] == "states":
                header["states"] = tuple(toks[1:])
            elif toks[0] == "pebbles":
                header["pebbles"] = _jag_int(toks[1], lineno, "pebbles")
            else:
                header[toks[0]] = toks[1]
        elif toks[0] == "designate":
            for item in toks[1:]:
                key, _, val = item.partition("=")
                if key not in ("s", "t", "curr"):
                    raise InputError(f"line {lineno}: unknown designation {key}")
                if key in header:
                    raise InputError(f"line {lineno}: repeated designation {key}")
                header[key] = _jag_int(val, lineno, f"designation {key}")
        elif "->" in toks:
            arrow = toks.index("->")
            if arrow != 2 or len(toks) < 4:
                raise InputError(f"line {lineno}: malformed rule")
            state, pi_txt = toks[0], toks[1]
            pi = tuple(_jag_int(x, lineno, "partition entry")
                       for x in pi_txt.split(","))
            nxt = toks[3]
            moves = []
            for tok in toks[4:]:
                if tok[0] == "m":
                    moves.append(_jag_int(tok[1:], lineno, "move label"))
                elif tok[0] == "j":
                    moves.append(-_jag_int(tok[1:], lineno, "jump target"))
                else:
                    raise InputError(f"line {lineno}: bad move {tok}")
            rule_lines.append((lineno, state, pi, nxt, tuple(moves)))
        else:
            raise InputError(f"line {lineno}: unrecognized line")
    if not {"start", "accept", "pebbles"} <= header.keys():
        raise InputError("missing start/accept/pebbles header")
    pebbles = header["pebbles"]
    rules: dict = {}
    for lineno, state, pi, nxt, moves in rule_lines:
        # a canonical vector is its own partition; any other never matches one
        if len(pi) != pebbles or partition_of(pi) != pi:
            raise InputError(f"line {lineno}: {','.join(map(str, pi))} is not "
                             f"a partition vector of {pebbles} pebbles")
        try:
            _check_moves(moves, pebbles)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        rules.setdefault((state, pi), []).append((nxt, moves))
    return NdJag(header["start"], header["accept"], pebbles,
                 s=header.get("s", 1), t=header.get("t", 2),
                 curr=header.get("curr"), delta=rules,
                 states=header.get("states"))
