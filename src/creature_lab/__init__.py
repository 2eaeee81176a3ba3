"""Finite calculus of specialization-function creatures.

Growth sequences, ambient forests, partial specialization functions,
creatures with game/cardinality norms, bounded-depth condition fragments with
a graded strengthening order, the constructive operations on all of these,
and a seeded property-verification harness with counterexample shrinking.
"""

from .params import GrowthSequences, NormShape, default_shape, halving_witness, make_growth
from .tree_model import AmbientTree, build_tree, initial_segment, random_tree
from .specfn import EMPTY_FN, Incompatible, SpecFn, delta_system, enumerate_spec, is_spec, union_spec
from .creature import Creature, NormRecord, SimpleCreature, norm0, norms, normstar, validate_creature
from .oracle import oracle_norm0

__all__ = [
    "GrowthSequences",
    "NormShape",
    "default_shape",
    "halving_witness",
    "make_growth",
    "AmbientTree",
    "build_tree",
    "initial_segment",
    "random_tree",
    "EMPTY_FN",
    "Incompatible",
    "SpecFn",
    "delta_system",
    "enumerate_spec",
    "is_spec",
    "union_spec",
    "Creature",
    "NormRecord",
    "SimpleCreature",
    "norm0",
    "norms",
    "normstar",
    "validate_creature",
    "oracle_norm0",
]

__version__ = "0.1.0"
