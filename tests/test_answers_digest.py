import hashlib
import random

from jaglab.machine import (Limits, build_config_graph, check_orderable,
                            check_traversable, decide_co_st_connectivity,
                            run, verify)
from jaglab.spotcheck import random_graph, random_jag

from conftest import random_program

# the digest of ``answers_digest()``; a change that alters an answer on
# purpose records the new value here and says why
ANSWERS_SHA256 = ("27fcca312cc7bf35c7900cdecbf96306"
                  "9dbec5d3980f7de88c9eb94f22e15038")


def answers_digest() -> str:
    """SHA-256 of every decider's answer on 1 000 rule tables and 300 pebble
    programs, drawn from ``random.Random(2024)``.

    Instance k: ``g = random_graph(rng)`` and ``random_jag(rng, g.degree)``
    for k < 1 000, then ``g = random_graph(rng, max_nodes=5,
    max_degree=2)`` and ``random_program(rng)``; every search runs under
    ``Limits(max_configs=10)``.  Per instance ``x`` the hash takes, UTF-8
    encoded and in this order:

    - ``verify(x, g, limits).to_text()``;
    - for ``r = run(x.space(g), limits)``, the line ``f"{r.verdict.value}
      {order} {r.configs_explored}\\n"``, where ``order`` is the visit
      order's nodes joined by ``,`` or ``-`` when it is None;
    - with ``cg = build_config_graph(x, g, limits)`` passed as
      ``config_graph``, one line per decider of ``check_traversable``,
      ``check_orderable`` and ``decide_co_st_connectivity``: ``repr`` of
      its answer, or the type name of the exception it raised, then
      ``\\n``.
    """
    rng = random.Random(2024)
    limits = Limits(max_configs=10)
    digest = hashlib.sha256()
    for k in range(1300):
        if k < 1000:
            g = random_graph(rng)
            x = random_jag(rng, g.degree)
        else:
            g = random_graph(rng, max_nodes=5, max_degree=2)
            x = random_program(rng)
        digest.update(verify(x, g, limits).to_text().encode())
        r = run(x.space(g), limits)
        order = "-" if r.visit_order is None else \
            ",".join(map(str, r.visit_order))
        digest.update(f"{r.verdict.value} {order} {r.configs_explored}\n"
                      .encode())
        cg = build_config_graph(x, g, limits)
        for decide in (check_traversable, check_orderable,
                       decide_co_st_connectivity):
            try:
                answer = repr(decide(x, g, limits, config_graph=cg))
            except Exception as exc:
                answer = type(exc).__name__
            digest.update(f"{answer}\n".encode())
    return digest.hexdigest()


def test_answers_match_the_recorded_digest():
    """Verdicts, visit orders, counts and decider answers on a fixed set of
    random rule tables and pebble programs are those recorded in
    ``ANSWERS_SHA256``, whatever ``PYTHONHASHSEED`` is."""
    assert answers_digest() == ANSWERS_SHA256
