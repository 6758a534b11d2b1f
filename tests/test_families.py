import pytest

from jaglab.errors import InputError
from jaglab.families import max_generator_order, parse_family


@pytest.mark.parametrize("spec,nodes,degree", [
    ("grid:d=2,l=3", 9, 2),
    ("grid:d=1,l=2", 2, 1),
    ("abelian:mod=4,2", 8, 2),
    ("abelian:mod=4,2;gens=(1,1)(0,1)", 8, 2),
    ("sym:n=3", 6, 2),
    ("sym:n=4", 24, 2),
    ("gl:n=2,p=2", 6, 4),
    ("gl:n=2,p=3", 48, 4),
    ("direct(grid:d=1,l=2, grid:d=1,l=3)", 6, 2),
    ("wreath(grid:d=1,l=2, grid:d=1,l=3)", 24, 2),
    ("wreath(grid:d=1,l=2, grid:d=1,l=2)", 8, 2),
    ("direct(sym:n=3, grid:d=1,l=2)", 12, 3),
])
def test_family_sizes(spec, nodes, degree):
    fam = parse_family(spec)
    assert fam.graph.num_nodes == nodes
    assert fam.graph.degree == degree


def test_nested_combinators():
    fam = parse_family("direct(direct(grid:d=1,l=2, grid:d=1,l=2), grid:d=1,l=2)")
    assert fam.graph.num_nodes == 8


def test_towers_exist_where_expected():
    assert parse_family("grid:d=2,l=2").tower is not None
    assert parse_family("sym:n=3").tower is not None
    assert parse_family("wreath(grid:d=1,l=2, grid:d=1,l=2)").tower is not None
    assert parse_family("gl:n=2,p=2").tower is None


def test_targetnode_override():
    fam = parse_family("grid:d=2,l=2", targetnode=(1, 1))
    assert fam.graph.targetnode == fam.cayley.node_of[(1, 1)]


def test_max_generator_order():
    assert max_generator_order(parse_family("grid:d=2,l=3")) == 3
    assert max_generator_order(parse_family("sym:n=4")) == 4


@pytest.mark.parametrize("spec", [
    "nope:d=1",
    "grid:d=2",           # missing l
    "abelian:gens=(1,0)", # missing mod
    "abelian:mod=4,2;gens=1,0",
    "wreath(grid:d=1,l=2)",
    "direct(grid:d=1,l=2, grid:d=1,l=2",
    "sym:",
    "grid:d=x,l=2",       # not an integer
    "sym:n=3junk",
    "abelian:mod=",
    "abelian:mod=4,2;gens=(1,x)",
    "grid:l=2",           # missing d
    "gl:n=2",             # missing p
    "sym:m=3",
    "abelian:mod=4;gens=(1,0)",  # generator arity
    "abelian:mod=4,2;gens=(1,0)x(0,1)",
    "grid:d=2,l=2,x=3",   # unknown parameter
    "grid:d=2,l=2,d=3",   # repeated parameter
    "direct(grid:d=1,l=2, sym:n=x)",
])
def test_bad_specs_rejected(spec):
    with pytest.raises(InputError):
        parse_family(spec)
