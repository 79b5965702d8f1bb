"""Kernelization toolkit for the d-hitting-set problem.

Reduces an instance (hypergraph with edges of size at most d, budget k) to an
equivalent one with at most ``(2d-2)*k**(d-1) + k`` vertices, or decides it
outright. Includes exact matching and LP machinery, a brute-force oracle, and
a seeded generator for differential verification.
"""

from .core import Edge, Hypergraph, Instance, is_independent, normalize, subedge_groups
from .crown import HSCrown, apply_hs_crown, validate_hs_crown
from .errors import (
    FormatError,
    InternalConsistencyError,
    InvalidCrownError,
    OracleCeilingError,
    UnsupportedParameterError,
)
from .lp import build_crown_lp, extract_crown_candidates, solve_exact
from .matching import (
    BipartiteGraph,
    Matching,
    SimpleGraph,
    blossom_max_matching,
    find_bipartite_crown,
    hopcroft_karp,
)
from .oracle import GenSpec, decide_brute_force, generate, min_hitting_set
from .reductions import ReduceResult, ReductionTrace, RuleOutcome, kernelize, vertex_bound

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "Edge",
    "FormatError",
    "GenSpec",
    "HSCrown",
    "Hypergraph",
    "Instance",
    "InternalConsistencyError",
    "InvalidCrownError",
    "Matching",
    "OracleCeilingError",
    "ReduceResult",
    "ReductionTrace",
    "RuleOutcome",
    "SimpleGraph",
    "UnsupportedParameterError",
    "apply_hs_crown",
    "blossom_max_matching",
    "build_crown_lp",
    "decide_brute_force",
    "extract_crown_candidates",
    "find_bipartite_crown",
    "generate",
    "hopcroft_karp",
    "is_independent",
    "kernelize",
    "min_hitting_set",
    "normalize",
    "solve_exact",
    "subedge_groups",
    "validate_hs_crown",
    "vertex_bound",
]
