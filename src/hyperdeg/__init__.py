"""Realize regular and almost-regular degree sequences as uniform
hypergraphs.

The library decides whether such a sequence is the degree sequence of an
h-uniform hypergraph without parallel edges, and constructs a witness with
pairwise distinct edges from fixed-density necklaces and Lyndon words, in one
checked call per degree class. Everything is exact integer arithmetic;
'0'/'1' strings appear only where a matrix is asked for.

The top level holds the documented calls and the types they take or return.
The word, necklace, feasibility and oracle helpers live in their submodules.
"""

from .feasibility import (
    DegreeCheck,
    Feasibility,
    RegularInstance,
    SpanOneInstance,
    check_degree_sequence,
)
from .hypergraphs import (
    Hypergraph,
    RealizationResult,
    degree_sequence,
    from_incidence,
    realize,
)
from .necklaces import count_lyndon, gen_lyndon
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
from .words import BinaryMatrix, block_submatrix, shift_matrix

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "ConstructionInvariantError",
    "DegreeCheck",
    "Feasibility",
    "Hypergraph",
    "LevelPlan",
    "RealizationResult",
    "RegularInstance",
    "RegularReconstruction",
    "SpanOneInstance",
    "SpanOneReconstruction",
    "VerifyResult",
    "block_submatrix",
    "check_degree_sequence",
    "count_lyndon",
    "degree_sequence",
    "from_incidence",
    "gen_lyndon",
    "realize",
    "rec_regular_with_plan",
    "rec_span_one_with_plan",
    "shift_matrix",
    "twin_free_bipartite",
    "verify",
]
