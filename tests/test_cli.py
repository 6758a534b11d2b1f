import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from jaglab.algorithms import grid_traversal_program
from jaglab.cli import main
from jaglab.errors import InputError
from jaglab.families import parse_family
from jaglab.graph import disjoint_union, parse_graph, serialize_graph
from jaglab.lang import compile_program
from jaglab.machine import Limits, build_config_graph
from jaglab.spotcheck import run_spotcheck

from conftest import decoded


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def grid22_file(tmp_path):
    path = tmp_path / "grid22.graph"
    code, _, _ = run_cli(["gen", "grid:d=2,l=2", "-o", str(path), "--target", "3"])
    assert code == 0
    return path


def test_gen_frozen_example(grid22_file):
    assert grid22_file.read_text() == "4 2 0 3\n2 1\n3 0\n0 3\n1 2\n"


def test_gen_to_stdout():
    code, out, _ = run_cli(["gen", "sym:n=3"])
    assert code == 0
    assert out.startswith("6 2 0 0\n")


def test_gen_degree_reduce():
    code, out, _ = run_cli(["gen", "grid:d=2,l=2", "--degree-reduce"])
    assert code == 0
    assert out.startswith("8 3 0 0\n")


def test_gen_bad_spec_exit3():
    code, _, err = run_cli(["gen", "nope:x=1"])
    assert code == 3 and "input error" in err


def test_gen_to_directory_exit3(tmp_path):
    code, _, err = run_cli(["gen", "sym:n=3", "-o", str(tmp_path)])
    assert code == 3 and "cannot write" in err


def test_gen_target_out_of_range_exit3():
    code, _, err = run_cli(["gen", "grid:d=2,l=2", "--target", "4"])
    assert code == 3 and "--target 4 out of range" in err


def test_seed_only_on_spotcheck(grid22_file):
    for cmd in ("run", "verify", "connect"):
        with pytest.raises(SystemExit):
            run_cli([cmd, "grid-traverse", str(grid22_file), "--seed", "1"])


def test_gen_cap_exit2(monkeypatch):
    monkeypatch.setenv("JAGLAB_CAP", "10")
    code, _, err = run_cli(["gen", "sym:n=4"])
    assert code == 2


def test_run_grid_traverse(grid22_file):
    code, out, _ = run_cli(["run", "grid-traverse", str(grid22_file)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "verdict: accept"
    assert lines[1:] == ["0", "1", "2", "3"]


def test_run_compiled_matches_interpreted(grid22_file):
    code1, out1, _ = run_cli(["run", "grid-traverse", str(grid22_file)])
    code2, out2, _ = run_cli(["run", "grid-traverse", str(grid22_file),
                              "--compiled"])
    assert (code1, out1) == (code2, out2)
    # a budget of the configurations no deeper than the first accept one
    # runs out one level after the build reaches it: still an accept
    g = parse_graph(grid22_file.read_text())
    jag = compile_program(grid_traversal_program(g.degree), g.degree)
    parents, _, accepting = decoded(build_config_graph(jag, g))
    depth = {}
    for config, parent in parents.items():  # parents come first
        depth[config] = 0 if parent is None else depth[parent] + 1
    accept_depth = depth[accepting[0]]
    budget = sum(d <= accept_depth for d in depth.values())
    short = build_config_graph(jag, g, Limits(max_configs=budget))
    assert short.limit_hit and decoded(short)[2]
    # a run-length bound one short of that depth runs out in both
    cases = [(["--limits-configs", str(budget)], 0, "accept"),
             (["--max-run-len", str(accept_depth - 1)], 2, "resource-limit"),
             (["--max-run-len", str(accept_depth)], 0, "accept")]
    for flags, code, verdict in cases:
        code1, out1, _ = run_cli(["run", "grid-traverse", str(grid22_file)]
                                 + flags)
        code2, out2, _ = run_cli(["run", "grid-traverse", str(grid22_file),
                                  "--compiled"] + flags)
        assert code1 == code and out1.startswith(f"verdict: {verdict}\n"), flags
        assert (code1, out1) == (code2, out2), flags


def test_run_program_file(tmp_path, grid22_file):
    src = tmp_path / "p.peb"
    src.write_text("accept\n")
    code, out, _ = run_cli(["run", str(src), str(grid22_file)])
    assert code == 0


def test_run_reject_exit1(tmp_path, grid22_file):
    src = tmp_path / "p.peb"
    src.write_text("fail\n")
    code, out, _ = run_cli(["run", str(src), str(grid22_file)])
    assert code == 1 and "verdict: reject" in out


def test_run_limit_exit2(grid22_file):
    code, out, _ = run_cli(["run", "grid-traverse", str(grid22_file),
                            "--limits-configs", "1"])
    assert code == 2 and "resource-limit" in out


def test_run_missing_program_exit3(grid22_file):
    code, _, err = run_cli(["run", "no-such-thing", str(grid22_file)])
    assert code == 3


@pytest.mark.parametrize("kind", ["reach", "undirected"])
def test_oracle_without_graph_exit3(kind):
    code, _, err = run_cli(["oracle", kind])
    assert code == 3 and "needs a graph file" in err


@pytest.mark.parametrize("argv", [
    ["run", "grid-traverse", "{dir}"],
    ["verify", "grid-traverse", "{dir}"],
    ["connect", "grid-traverse", "{dir}"],
    ["oracle", "reach", "{dir}"],
    ["oracle", "undirected", "{dir}"],
    ["run", "{dir}", "{graph}"],
    ["verify", "{dir}", "{graph}"],
])
def test_directory_paths_exit3(tmp_path, grid22_file, argv):
    argv = [a.format(dir=tmp_path, graph=grid22_file) for a in argv]
    code, _, err = run_cli(argv)
    assert code == 3 and "input error" in err


def test_connect_malformed_family_exit3(tmp_path):
    path = tmp_path / "s3.graph"
    run_cli(["gen", "sym:n=3", "-o", str(path)])
    code, _, err = run_cli(["connect", "co-st-conn", str(path),
                            "--family", "sym:m=3"])
    assert code == 3 and "input error" in err


def test_verify_report_keys(grid22_file):
    code, out, _ = run_cli(["verify", "grid-traverse", str(grid22_file)])
    assert code == 0
    assert "traversable: true" in out
    assert "orderable: true" in out
    assert "visit_order: 0 1 2 3" in out


def test_verify_negative_control(tmp_path, grid22_file):
    src = tmp_path / "jump.peb"
    src.write_text("pebble curr\njump curr to t\naccept\n")
    code, out, _ = run_cli(["verify", str(src), str(grid22_file)])
    assert code == 0
    assert "traversable: false" in out


def test_connect_verdicts(tmp_path):
    path = tmp_path / "g.graph"
    run_cli(["gen", "grid:d=2,l=2", "-o", str(path), "--target", "2"])
    code, out, _ = run_cli(["connect", "grid-traverse", str(path)])
    assert code == 0 and out.strip() == "connected"
    # two components: startnode component never reaches the target
    two = tmp_path / "two.graph"
    two.write_text("4 1 0 2\n1\n0\n3\n2\n")
    code, out, _ = run_cli(["connect", "grid-traverse", str(two)])
    assert code == 1 and out.strip() == "disconnected"


def test_oracle_reach(tmp_path):
    two = tmp_path / "two.graph"
    two.write_text("4 1 0 2\n1\n0\n3\n2\n")
    code, out, _ = run_cli(["oracle", "reach", str(two)])
    assert code == 0
    assert out.strip().splitlines() == ["0", "1", "connectivity: disconnected"]


def test_oracle_canon_and_order():
    code, out, _ = run_cli(["oracle", "canon", "--family", "abelian:mod=4,2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert lines[0].split("\t") == ["0,0", "0"]
    code, out2, _ = run_cli(["oracle", "order", "--family", "abelian:mod=4,2"])
    assert [l.split("\t")[1] for l in lines] == out2.strip().splitlines()


def test_oracle_evals():
    code, out, _ = run_cli(["oracle", "evals", "--family",
                            "abelian:mod=4,2;gens=(1,1)(0,1)"])
    assert code == 0 and out.strip() == "4 2"


def test_oracle_undirected(grid22_file):
    code, out, _ = run_cli(["oracle", "undirected", str(grid22_file),
                            "--bound", "1"])
    assert code == 0 and out.strip() == "true"  # order-2 generators
    code, out, _ = run_cli(["oracle", "undirected", str(grid22_file),
                            "--family", "grid:d=2,l=2"])
    assert code == 0 and out.strip() == "true"


def test_oracle_maxorder():
    code, out, _ = run_cli(["oracle", "maxorder", "--family",
                            "abelian:mod=4,2", "--pebbles", "3"])
    assert code == 0
    assert "generator: 1" in out and "order: 4" in out and "capacity: 64" in out


@pytest.mark.parametrize("pebbles, digits", [("4761", 4300), ("4762", None),
                                             ("5000", None)])
def test_oracle_maxorder_capacity_digits(pebbles, digits):
    """8**4761 has 4 300 digits and prints; a capacity with more digits is
    an input error (exit 3), not a reject."""
    code, out, err = run_cli(["oracle", "maxorder", "--family",
                              "abelian:mod=8", "--pebbles", pebbles])
    if digits is None:
        assert code == 3 and "has more than 4300 digits" in err
    else:
        capacity = out.split("capacity: ")[1].strip()
        assert code == 0 and len(capacity) == digits


def test_builtin_order_programs(tmp_path):
    path = tmp_path / "z42.graph"
    run_cli(["gen", "abelian:mod=4,2;gens=(1,1)(0,1)", "-o", str(path)])
    code, out, _ = run_cli(["verify", "abelian-order", str(path),
                            "--family", "abelian:mod=4,2;gens=(1,1)(0,1)"])
    assert code == 0
    assert "traversable: true" in out and "orderable: true" in out
    sym = tmp_path / "s3.graph"
    run_cli(["gen", "sym:n=3", "-o", str(sym)])
    code, out, _ = run_cli(["verify", "sym-order", str(sym),
                            "--family", "sym:n=3"])
    assert code == 0 and "orderable: true" in out


@pytest.mark.parametrize("program, spec", [
    ("product-order", "direct(grid:d=1,l=3, sym:n=3)"),
    ("canon-order", "wreath(grid:d=1,l=2, grid:d=1,l=3)"),
    ("co-st-conn", "sym:n=3"),
])
def test_builtin_tower_programs_visit_in_tower_order(tmp_path, program, spec):
    path = tmp_path / "g.graph"
    run_cli(["gen", spec, "-o", str(path)])
    code, order, _ = run_cli(["oracle", "order", "--family", spec])
    assert code == 0
    code, out, _ = run_cli(["verify", program, str(path), "--family", spec])
    assert code == 0 and "orderable: true" in out
    assert f"visit_order: {' '.join(order.split())}" in out.splitlines()


def test_connect_co_st_conn(tmp_path):
    path = tmp_path / "s3.graph"
    run_cli(["gen", "sym:n=3", "--target", "4", "-o", str(path)])
    code, out, _ = run_cli(["connect", "co-st-conn", str(path),
                            "--family", "sym:n=3"])
    assert code == 0 and out.strip() == "connected"


@pytest.mark.parametrize("apart, want", [(False, (0, "connected\n")),
                                         (True, (1, "disconnected\n"))])
def test_run_co_st_conn_compiled_decides_on_the_compiled_automaton(
        tmp_path, monkeypatch, apart, want):
    """``run co-st-conn --compiled`` compiles the program once and decides
    on the automaton, with the output and exit code of the route without
    the flag: on sym:n=4 and on two disjoint copies of it."""
    from jaglab import cli
    g = parse_family("sym:n=4").graph
    if apart:
        g = disjoint_union(g, g)
    path = tmp_path / "g.graph"
    path.write_text(serialize_graph(g))
    calls = []

    def counting(prog, degree):
        calls.append(degree)
        return compile_program(prog, degree)

    monkeypatch.setattr(cli, "compile_program", counting)
    argv = ["run", "co-st-conn", str(path), "--family", "sym:n=4"]
    assert run_cli(argv)[:2] == want and calls == []
    assert run_cli(argv + ["--compiled"])[:2] == want
    assert calls == [g.degree]


def test_wreath_count_cli():
    code, out, _ = run_cli(["wreath-count", "--family",
                            "wreath(grid:d=1,l=2, grid:d=1,l=2)"])
    assert code == 0
    assert "count: 2" in out and "overflow: true" in out


def test_wreath_count_step_that_is_no_successor_exit3(monkeypatch):
    """The check of each counting step is a raise, so ``python -O`` keeps
    it."""
    from jaglab import algorithms
    monkeypatch.setattr(algorithms, "wreath_successor", lambda ws, x, y: False)
    code, out, err = run_cli(["wreath-count", "--family",
                              "wreath(grid:d=1,l=2, grid:d=1,l=2)"])
    assert code == 3
    assert out == "count: 0\n"
    assert err.startswith("diagnostic: step 1 ")


def test_spotcheck_cli():
    code, out, _ = run_cli(["spotcheck", "--pairs", "10", "--seed", "1"])
    assert code == 0
    assert "agreements: 10" in out


def test_spotcheck_without_budget_is_an_input_error():
    # under a budget of 0 no instance can be kept, so drawing them would
    # never end: a child process makes a hang fail instead of stall
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "jaglab.cli", "spotcheck", "--pairs", "1",
         "--limits-configs", "0"], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 3
    assert done.stderr.startswith("input error:")
    with pytest.raises(InputError):
        run_spotcheck(pairs=1, max_tree_nodes=0)


def test_run_grid_program_rejects_non_cayley(tmp_path):
    # degree-2 graph with no grid structure: all verification guesses die
    path = tmp_path / "odd.graph"
    path.write_text("4 2 0 3\n2 1\n1 2\n1 0\n2 1\n")
    code, out, _ = run_cli(["run", "grid-traverse", str(path)])
    assert code == 1 and "verdict: reject" in out


def test_target_keeps_input_convention(tmp_path):
    # two 3-cycles; --target 1 leaves the second one without a pebble
    two = tmp_path / "two.graph"
    two.write_text("6 1 0 3\n1\n2\n0\n4\n5\n3\n")
    code, _, _ = run_cli(["verify", "grid-traverse", str(two)])
    assert code == 0  # as written, each component holds a pebble
    for flags in (["--target", "1"], ["--target", "1", "--degree-reduce"]):
        code, _, err = run_cli(["verify", "grid-traverse", str(two)] + flags)
        assert code == 3
        assert "component contains neither startnode nor targetnode" in err
    # the same graph written with that targetnode is rejected alike
    bad = tmp_path / "bad.graph"
    bad.write_text("6 1 0 1\n1\n2\n0\n4\n5\n3\n")
    code, _, err = run_cli(["verify", "grid-traverse", str(bad)])
    assert code == 3
    assert "component contains neither startnode nor targetnode" in err


@pytest.mark.parametrize("argv", [
    ["verify", "grid-traverse", "{graph}", "--limits-configs", "abc"],
    ["verify", "grid-traverse", "{graph}", "--limits-configs", "-3"],
    ["run", "grid-traverse", "{graph}", "--max-run-len", "-1"],
    ["verify", "grid-traverse"],
    ["oracle", "nope", "{graph}"],
    ["oracle", "maxorder", "--family", "abelian:mod=4,2", "--pebbles", "-1"],
    ["spotcheck", "--pairs", "-1"],
    ["frobnicate"],
])
def test_usage_errors_exit3(grid22_file, argv):
    argv = [a.format(graph=grid22_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 3


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "-h"])
    assert exc.value.code == 0


def test_connect_budget_exit2(grid22_file):
    code, _, err = run_cli(["connect", "grid-traverse", str(grid22_file),
                            "--limits-configs", "50"])
    assert code == 2
    assert "limit: max_configs budget exhausted" in err
