"""Self-tests of the benchmark: the generator is a function of its seed, and
the correctness gate catches wrong answers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import randjag  # noqa: E402
from spans import Tracer  # noqa: E402
from jaglab.graph import serialize_graph  # noqa: E402
from jaglab.lang import interpret  # noqa: E402
from jaglab.machine import (Verdict, all_partitions, serialize_jag,  # noqa: E402
                            verify)


def _fingerprint(instances):
    return [(i.label, serialize_jag(i.jag), serialize_graph(i.graph))
            for i in instances]


def test_generator_is_deterministic_per_seed():
    first = _fingerprint(randjag.generate(7, per_class=2))
    assert first == _fingerprint(randjag.generate(7, per_class=2))
    assert first != _fingerprint(randjag.generate(8, per_class=2))


def test_generator_gives_the_accept_state_rules():
    instances = randjag.generate(7, per_class=2)
    assert all(any(state == i.jag.accept_state for state, _ in i.jag.rules)
               for i in instances[:10])


def test_partitions_match_the_machine():
    for p in (1, 2, 3, 4):
        assert sorted(randjag.partitions(p)) == sorted(all_partitions(p))


@pytest.fixture(scope="module")
def random_cases():
    cases = [bench.Case("random", i.label, i.graph, None, jag=i.jag)
             for i in randjag.generate(3, per_class=2)]
    bench.attach_oracle(cases)
    return cases


def test_random_gate_passes_the_real_reports(random_cases):
    for case in random_cases:
        assert bench.check("verify-random", case, verify(case.jag, case.graph)) is None


def test_random_gate_flags_doctored_verdict_and_order(random_cases):
    accepted = [c for c in random_cases if c.expected and c.expected.accepts]
    rejected = [c for c in random_cases if c.expected and not c.expected.accepts]
    assert accepted and rejected
    for case in accepted:
        report = verify(case.jag, case.graph)
        wrong = dataclasses.replace(report, verdict=Verdict.REJECT)
        assert bench.check("verify-random", case, wrong)
        wrong = dataclasses.replace(report, visit_order=(-1,))
        assert bench.check("verify-random", case, wrong)
    for case in rejected:
        report = verify(case.jag, case.graph)
        wrong = dataclasses.replace(report, verdict=Verdict.ACCEPT)
        assert bench.check("verify-random", case, wrong)


def test_a_doctored_pass_cannot_report_zero_failures(random_cases, monkeypatch):
    def flipped(jag, g):
        report = verify(jag, g)
        other = Verdict.REJECT if report.verdict is Verdict.ACCEPT else Verdict.ACCEPT
        return dataclasses.replace(report, verdict=other)

    checked = sum(c.expected is not None for c in random_cases)
    monkeypatch.setattr(bench, "verify", flipped)
    result = bench.untraced_pass("verify-random", random_cases)
    assert len(result.failures) == checked > 0

    def crash(jag, g):
        raise RuntimeError("boom")

    monkeypatch.setattr(bench, "verify", crash)
    result = bench.untraced_pass("verify-random", random_cases)
    assert len(result.failures) == len(random_cases)


@pytest.fixture(scope="module")
def wreath():
    """The smallest rung, as each ladder workload sets it up."""
    return {w: [c for c in bench.ladder_cases(w, 1) if c.rung == "wreath-2x3"]
            for w in ("verify-ladder", "connect-ladder", "run-ladder")}


def test_ladder_gate_flags_doctored_verdict_and_order(wreath):
    (case,) = wreath["verify-ladder"]
    report = verify(case.jag, case.graph)
    assert bench.check("verify-ladder", case, report) is None
    for doctored in (dict(verdict=Verdict.REJECT), dict(orderable=False),
                     dict(traversable=False),
                     dict(visit_order=tuple(reversed(report.visit_order)))):
        wrong = dataclasses.replace(report, **doctored)
        assert bench.check("verify-ladder", case, wrong), doctored


def test_run_gate_flags_doctored_order(wreath):
    (case,) = wreath["run-ladder"]
    result = interpret(case.prog, case.graph)
    assert bench.check("run-ladder", case, result) is None
    order = result.visit_order
    wrong = dataclasses.replace(result, visit_order=order[1:] + order[:1])
    assert bench.check("run-ladder", case, wrong)


def test_connect_gate_flags_doctored_verdict(wreath):
    cases = wreath["connect-ladder"]
    assert sorted(c.expected for c in cases) == ["connected", "disconnected"]
    for case in cases:
        result = bench.decide("connect-ladder", case)
        assert bench.check("connect-ladder", case, result) is None
        flipped = "connected" if result == "disconnected" else "disconnected"
        assert bench.check("connect-ladder", case, flipped)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("pass") as root:
        with tracer.span("instance", "a") as outer:
            with tracer.span("layer", "a") as inner:
                pass
    times = tracer.self_times(root, tracer.children())
    assert times["a", "instance"] == pytest.approx(outer.duration - inner.duration)
    assert times["a", "layer"] == pytest.approx(inner.duration)
