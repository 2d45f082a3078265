"""Realize regular and almost-regular degree sequences as uniform
hypergraphs.

The library decides whether such a sequence is the degree sequence of an
h-uniform hypergraph without parallel edges, and constructs a witness with
pairwise distinct edges from fixed-density necklaces and Lyndon words, in one
checked call per degree class. Everything is exact integer arithmetic;
'0'/'1' strings appear only where a matrix is asked for.
"""

from .feasibility import (
    DegreeCheck,
    Feasibility,
    RegularInstance,
    SpanOneInstance,
    check_degree_sequence,
    check_regular,
    check_span_one,
    classify_degrees,
    conjugate,
    erdos_gallai_check,
    gale_ryser_check,
)
from .hypergraphs import (
    Hypergraph,
    RealizationResult,
    degree_sequence,
    from_incidence,
    realize,
    to_incidence,
)
from .necklaces import (
    binomial,
    common_divisors,
    count_lyndon,
    count_necklaces,
    euler_phi,
    gen_lyndon,
    gen_necklaces,
    mobius,
)
from .oracle import OracleResult, exists_any_matrix, exists_distinct_rows
from .reconstruct import (
    ConstructionInvariantError,
    LevelPlan,
    RegularReconstruction,
    SpanOneReconstruction,
    VerifyResult,
    rec_regular_with_plan,
    rec_span_one_with_plan,
    twin_free_bipartite,
    verify,
)
from .words import (
    BinaryMatrix,
    block_submatrix,
    canonical,
    cyclic_shift,
    density,
    is_lyndon,
    period,
    shift_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "ConstructionInvariantError",
    "DegreeCheck",
    "Feasibility",
    "Hypergraph",
    "LevelPlan",
    "OracleResult",
    "RealizationResult",
    "RegularInstance",
    "RegularReconstruction",
    "SpanOneInstance",
    "SpanOneReconstruction",
    "VerifyResult",
    "binomial",
    "block_submatrix",
    "canonical",
    "check_degree_sequence",
    "check_regular",
    "check_span_one",
    "classify_degrees",
    "common_divisors",
    "conjugate",
    "count_lyndon",
    "count_necklaces",
    "cyclic_shift",
    "degree_sequence",
    "density",
    "erdos_gallai_check",
    "euler_phi",
    "exists_any_matrix",
    "exists_distinct_rows",
    "from_incidence",
    "gale_ryser_check",
    "gen_lyndon",
    "gen_necklaces",
    "is_lyndon",
    "mobius",
    "period",
    "realize",
    "rec_regular_with_plan",
    "rec_span_one_with_plan",
    "shift_matrix",
    "to_incidence",
    "twin_free_bipartite",
    "verify",
]
