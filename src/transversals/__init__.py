"""Exact enumeration of minimal hypergraph transversals (minimal hitting sets).

Three engines back the same sink contract: a branch-and-reduce engine for
rank <= 3, an iterative-compression engine for rank 4, and a general
branching engine for every rank. An analysis toolbox verifies the weighted
measure behind the rank-3 bound and reproduces the per-rank bound table,
and a brute-force oracle plus instance generators support differential
testing.
"""

from .analysis import (
    DEFAULT_WEIGHTS,
    BoundsRow,
    ConstraintReport,
    ConstraintRow,
    Weights,
    bounds_table,
    branching_factor,
    format_report,
    load_weights,
    lower_bound_base,
    measure,
    verify_weights,
)
from .compression import (
    DEFAULT_ALPHA,
    CompressionConfig,
    enumerate_compression,
    find_split,
    project,
)
from .errors import ParseError, SearchInvariantError, UnsupportedInstanceError
from .hypergraph import (
    Hypergraph,
    Instance,
    SearchStats,
    TransversalSink,
    parse_hypergraph,
    relabel,
    serialize_hypergraph,
)
from .instances import (
    GeneratorSpec,
    brute_force_enumerate,
    gen_lower_bound,
    gen_random,
    gen_triangles,
    generate,
)
from .rank3 import RuleId, apply_rule, enumerate_rank3, next_rule
from .rankk import B2Choice, choose_b2, enumerate_rankk

__all__ = [
    "B2Choice",
    "BoundsRow",
    "CompressionConfig",
    "ConstraintReport",
    "ConstraintRow",
    "DEFAULT_ALPHA",
    "DEFAULT_WEIGHTS",
    "GeneratorSpec",
    "Hypergraph",
    "Instance",
    "ParseError",
    "RuleId",
    "SearchInvariantError",
    "SearchStats",
    "TransversalSink",
    "UnsupportedInstanceError",
    "Weights",
    "apply_rule",
    "bounds_table",
    "branching_factor",
    "brute_force_enumerate",
    "choose_b2",
    "enumerate_compression",
    "enumerate_rank3",
    "enumerate_rankk",
    "find_split",
    "format_report",
    "gen_lower_bound",
    "gen_random",
    "gen_triangles",
    "generate",
    "load_weights",
    "lower_bound_base",
    "measure",
    "next_rule",
    "parse_hypergraph",
    "project",
    "relabel",
    "serialize_hypergraph",
    "verify_weights",
]
