import hashlib

import pytest

from jaglab.errors import InputError
from jaglab.families import max_generator_order, parse_family
from jaglab.graph import serialize_graph
from jaglab.groups import cayley_graph


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
    fam = parse_family("grid:d=2,l=2")
    cay = cayley_graph(fam.group, fam.gens, targetnode=(1, 1))
    assert cay.graph.targetnode == cay.node_of[(1, 1)] != fam.graph.targetnode


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


# Node ids follow the sorted element order of each group; these digests of
# the generated graph files pin that numbering for every family kind.
@pytest.mark.parametrize("spec,digest", [
    ("gl:n=2,p=3",
     "fa48e2fd1f7d6877025202468aa69349469fde2f53ae15aef380452129a1d6d3"),
    ("gl:n=3,p=2",
     "7142d243f9fa07690628a18d99cc36e5cef2fbadeee72d93f4f983ab22740706"),
    ("sym:n=4",
     "933ca15cf11bc1609fb2b12969e3d70f3e88522a2ba8abad766189f9328148b5"),
    ("abelian:mod=4,2;gens=(2,1)(1,0)",
     "61371670e57651e54372bf05234c62dfdc6d19704ee9b01eed03ab77a3b64264"),
    ("direct(sym:n=3, grid:d=1,l=3)",
     "7fd8affbed27355f1a7b6f7c698f3b296bc6763d84f6752f8974fac47eb7c8d5"),
    ("wreath(grid:d=1,l=2, grid:d=1,l=3)",
     "43e88cb5713723a635257e557fe0bb235d4e1cb9491ef4994a77c6ffaee3737c"),
    ("wreath(grid:d=1,l=3, grid:d=1,l=2)",
     "7a0a471df66579dd91777dc738b464d211877817694dcafd45d6df54bf3eb31d"),
    ("direct(wreath(grid:d=1,l=2, grid:d=1,l=2), grid:d=1,l=2)",
     "bfb694edb95d586503fbd5ec118881c3cbfaf9a6ed7e0b9fe532ff30272d2ce4"),
])
def test_node_numbering_frozen(spec, digest):
    text = serialize_graph(parse_family(spec).graph)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
