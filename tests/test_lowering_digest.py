import hashlib
import random

from jaglab.algorithms import (count_to_max_order_program,
                               grid_traversal_program, inverse_program,
                               is_number_program, jump_to_target_program,
                               mult_program, tower_program,
                               two_tour_guesser_program)
from jaglab.families import parse_family
from jaglab.lang import parse_program
from jaglab.machine import all_partitions

from conftest import random_program

# the digests of ``lowering_digest()``, ``mutation_digest()`` and
# ``control_digest()``; a change that alters a lowering, an error or the
# control flow on purpose records the new value here and says why
LOWERING_SHA256 = ("35dfb0e1f3b669f3e47d2f0a4b2d2c18"
                   "c99e6a4877d3c724d0dfcbdf54ea4e71")
MUTATION_SHA256 = ("2707c6bd972c3a3c00657d515a3997f4"
                   "097c81ea15f8efffcda2d0abffa578d1")
CONTROL_SHA256 = ("dbe8dc9fab6cb28d4ee20c96d464c3bc"
                  "a5bc8a04d5c0e3be0e495614154aeec4")

DEGREES = (1, 2, 3)

# set domains inside and outside 1..d, contiguous and not, and every form
# of for loop over them: a degree-dependent check fires at some degree only
_DOMAINS = """\
pebble curr
pebble a at target
pebble b at start
dir x : 1..d
dir y : {1,3}
dir z : {1..2}
dir c : {0..3}
guess y
guess z
if a != b {
    move curr along z
} else {
}
for x = 1 to d {
    move a along x
}
for c = 0 to z {
    jump curr to a
}
for z = 1 to 2 {
    b := a.2
}
while a == curr {
    guess f : bool
    if f {
        move a along y
    } else {
        move b along 3
    }
}
visit b
accept
"""

# lines a mutation puts in: declarations, labels and loop bounds that a
# degree can exceed, domains outside 1..d, block lines and malformed ones
_LINES = [
    "pebble curr", "pebble q at target", "pebble s at start",
    "pebble q at nowhere", "dir x : 1..d", "dir y : {1,3}", "dir y : {2..4}",
    "dir c : {0..2}", "dir z : {1..2}", "dir w : {1, 2, 3}", "dir v : {}",
    "guess x", "guess y", "guess b : bool", "guess s : bool",
    "guess d : bool", "guess q", "move a along 3", "move a along y",
    "move curr along z", "move a along 0", "move a along c", "move q along 1",
    "jump a to t", "a := s.3", "a := s", "visit a", "x := a", "a := s.y",
    "if b {", "if a == t {", "if a != curr {", "if x {", "if b", "while b {",
    "} else {", "}", "} else", "else {", "{",
    "for c = 1 to 3 {", "for y = 1 to d {", "for c = 0 to x {",
    "for z = 1 to d {", "for x = d to 1 {", "for c = y to 2 {",
    "for b = 1 to 2 {", "for c = 1 to q {",
    "fail", "accept", "accept now", "@", "# a comment",
]
_DOMAIN_SPECS = ["1..d", "{1,3}", "{2..4}", "{0..2}", "{1..2}", "{1..4}",
                 "{3}", "{1,2,3}"]
_WORDS = ["a", "b", "c", "x", "y", "z", "d", "s", "t", "q", "curr", "0", "1",
          "3", "{", "}", ":=", "==", "!=", "else", "to", "along", ":", "..",
          "bool", "target", "guess", "move"]


def _sources(rng) -> list:
    """The builtin programs' sources, ``_DOMAINS`` and 1 200 random
    programs' sources."""
    fams = [parse_family(spec) for spec in (
        "grid:d=2,l=3", "abelian:mod=4,4", "sym:n=4",
        "wreath(grid:d=1,l=2, grid:d=1,l=3)")]
    progs = [tower_program(f.tower) for f in fams]
    progs += [is_number_program(fams[-1].wreath), jump_to_target_program(),
              two_tour_guesser_program()]
    for degree in DEGREES:
        progs += [grid_traversal_program(degree), mult_program(degree),
                  inverse_program(degree), count_to_max_order_program(degree)]
    return [p.source for p in progs] + [_DOMAINS] + [
        random_program(rng).source for _ in range(1200)]


def _mutate(rng, source: str) -> str:
    """``source`` with one to three lines deleted, inserted, replaced,
    swapped, changed in one word or, for a ``dir`` line, given another
    domain."""
    lines = source.splitlines()
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines) + 1)
        how = rng.randrange(6)
        dirs = [i for i, line in enumerate(lines) if line.startswith("dir ")]
        if how == 5 and dirs:
            k = rng.choice(dirs)
            spec = rng.choice(_DOMAIN_SPECS)
            lines[k] = f"{lines[k].split(':')[0]}: {spec}"
        elif how in (1, 5) or k == len(lines):
            lines.insert(k, rng.choice(_LINES))
        elif how == 0:
            del lines[k]
        elif how == 2:
            lines[k] = rng.choice(_LINES)
        elif how == 3:
            j = rng.randrange(len(lines))
            lines[k], lines[j] = lines[j], lines[k]
        else:
            words = lines[k].split() or [""]
            words[rng.randrange(len(words))] = rng.choice(_WORDS)
            lines[k] = " ".join(words)
    return "\n".join(lines)


def _lowering(source: str) -> str:
    """What parsing ``source`` and binding it at each of ``DEGREES`` give,
    as text: a raised error's type, line and message, or the bound
    program's fields."""
    def error(stage, exc):
        return (f"{stage} {type(exc).__name__} {getattr(exc, 'line', None)} "
                f"{exc}\n")

    try:
        prog = parse_program(source)
    except Exception as exc:
        return error("parse", exc)
    out = ""
    for degree in DEGREES:
        try:
            bp = prog.bind(degree)
        except Exception as exc:
            out += error(f"bind {degree}", exc)
            continue
        out += repr((bp.pebble_names, bp.s_idx, bp.t_idx, bp.curr_idx,
                     bp.var_domains, bp.init_vals, bp.instrs)) + "\n"
    return out


def lowering_digest() -> str:
    """SHA-256 of ``_lowering`` of each of ``_sources(random.Random(2025))``,
    UTF-8 encoded, in order."""
    digest = hashlib.sha256()
    for source in _sources(random.Random(2025)):
        digest.update(_lowering(source).encode())
    return digest.hexdigest()


def mutation_digest() -> str:
    """SHA-256 of ``_lowering`` of 4 000 mutants: each mutates a source
    drawn from ``_sources`` with ``random.Random(2026)``."""
    sources = _sources(random.Random(2025))
    rng = random.Random(2026)
    digest = hashlib.sha256()
    for _ in range(4000):
        digest.update(_lowering(_mutate(rng, rng.choice(sources))).encode())
    return digest.hexdigest()


def _control(source: str, rng) -> str:
    """What the control flow of ``source`` bound at each of ``DEGREES``
    gives at every point, as text: the sorted ``observed`` pairs, then, for
    one valuation drawn from ``rng``, ``canon`` and ``fold`` under every
    partition of the pebbles.  Empty for a source that does not parse or
    bind."""
    try:
        prog = parse_program(source)
    except Exception:
        return ""
    out = []
    for degree in DEGREES:
        try:
            bp = prog.bind(degree)
        except Exception:
            continue
        partitions = list(all_partitions(bp.num_pebbles))
        for pt in range(len(bp.instrs)):
            vals = tuple([rng.choice(dom) for dom in bp.var_domains])
            out.append(repr((degree, pt, sorted(bp.observed(pt)),
                             bp.canon(pt, vals))))
            out += [repr(bp.fold(pt, vals, pi)) for pi in partitions]
    return "".join([line + "\n" for line in out])


def control_digest() -> str:
    """SHA-256 of ``_control`` of the builtin sources, ``_DOMAINS`` and the
    first 300 random sources of ``_sources(random.Random(2025))``, with one
    ``random.Random(2027)`` drawing the valuations, UTF-8 encoded, in
    order."""
    rng = random.Random(2027)
    digest = hashlib.sha256()
    for source in _sources(random.Random(2025))[:-900]:
        digest.update(_control(source, rng).encode())
    return digest.hexdigest()


def test_lowering_matches_the_recorded_digest():
    """Builtin and random programs lower to the recorded instructions,
    pebble names, domains and start values at degrees 1 to 3."""
    assert lowering_digest() == LOWERING_SHA256


def test_mutated_programs_fail_as_recorded():
    """Mutated sources parse, bind or fail with the recorded error type,
    line and message at degrees 1 to 3."""
    assert mutation_digest() == MUTATION_SHA256


def test_control_flow_matches_the_recorded_digest():
    """Builtin and random programs observe the recorded pebble pairs, reset
    the recorded dead variables and fold to the recorded actions at every
    point, on one valuation per point and every pebble partition."""
    assert control_digest() == CONTROL_SHA256


def test_only_a_nonempty_else_jumps_past_its_block():
    """An ``if`` block followed by an ``else`` block ends with a ``goto``
    past it; an empty ``else { }`` adds no ``goto``, so both branches of
    the test lead to the same point."""
    def instrs(else_block):
        return parse_program("pebble p\nguess b : bool\nif b {\n"
                             "move p along 1\n} else {\n" + else_block
                             + "}\naccept").bind(1).instrs

    assert instrs("") == (
        ("guess", 0), ("ifvar", 0, 2, 3), ("move", 1, ("lit", 1)),
        ("accept",), ("fail",))
    assert instrs("fail\n") == (
        ("guess", 0), ("ifvar", 0, 2, 4), ("move", 1, ("lit", 1)),
        ("goto", 5), ("fail",), ("accept",), ("fail",))
