"""jaglab: pebble automata on labelled graphs, Cayley-graph families, and
mechanical checking of traversability, orderability, and co-st-connectivity."""

from .errors import (CapExceeded, DiagnosticError, GraphFormatError,
                     InputError, ProgramError, ResourceLimitExceeded)
from .graph import (LabelledGraph, disjoint_union, is_undirected,
                    parse_graph, reachable_set, reduce_degree,
                    serialize_graph, target, weak_components)
from .groups import (CayleyGraph, FiniteGroup, WreathStructure, abelian_group,
                     cayley_graph, direct_product, element_order, gl_group,
                     grid_group, p_k_path, subgroup_closure, symmetric_group,
                     wreath_product, wreath_structure)
from .lang import (BoundProgram, PebbleProgram, RunResult, compile_program,
                   interpret, parse_program)
from .machine import (Configuration, Limits, NdJag, Verdict,
                      VerificationReport, accepts, build_config_graph,
                      check_orderable, check_traversable,
                      decide_co_st_connectivity, enumerate_runs,
                      initial_config, parse_jag, partition_of,
                      serialize_jag, successors, verify)
from .algorithms import (CanonicalTower, RegisterMachine, TowerPosition,
                         abelian_canonical_exponents, abelian_canonical_path,
                         abelian_e_values, abelian_ordering_run,
                         abelian_tower, check_tower,
                         count_to_max_order_program, doubling_machine,
                         grid_traversal_program, inverse_program,
                         jump_to_target_program, max_order_generator,
                         mult_program, product_ordering,
                         replacement_product_ordering, run_register_machine,
                         symmetric_ordering_run, symmetric_tower,
                         tower_order, tower_program, two_tour_guesser_program,
                         wreath_canonical_path, wreath_is_number, wreath_same,
                         wreath_successor, wreath_testf, wreath_tower)
from .families import Family, parse_family

__version__ = "0.1.0"
