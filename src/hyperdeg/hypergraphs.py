"""Incidence-matrix and edge-list views of uniform hypergraphs, and the
degree-sequence realization entry point.

Input is checked where it enters: the `Hypergraph` constructor sorts and
checks every edge it is given. `from_incidence` trusts the checked
`BinaryMatrix` it reads, whose rows already give sorted in-range edges, and
checks only what a matrix does not guarantee; it serves matrices from outside.
`realize` builds no matrix: it wraps the edges read off the construction's
checked plan.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence

from .feasibility import (
    RegularInstance,
    SpanOneInstance,
    _integers,
    _Record,
    check_degree_sequence,
)
from .reconstruct import _BUILDERS
from .words import BinaryMatrix, _row_of_ones

__all__ = [
    "Hypergraph",
    "RealizationResult",
    "degree_sequence",
    "from_incidence",
    "realize",
    "to_incidence",
]

_ONE = re.compile("1")


class Hypergraph(_Record):
    """Vertex count plus an ordered list of pairwise distinct, equal-size
    edges; vertices are 1-based."""

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Iterable[int]]) -> None:
        _integers((n,), "vertex count must be an integer")
        if n < 1:
            raise ValueError("vertex count must be positive")
        edges = tuple(map(tuple, edges))
        _integers([vertex for edge in edges for vertex in edge], "vertices must be integers")
        normalized = tuple(tuple(sorted(edge)) for edge in edges)
        _check_edge_set(normalized)
        for edge in normalized:
            if len(set(edge)) != len(edge):
                raise ValueError(f"edge repeats a vertex: {edge}")
            if edge[0] < 1 or edge[-1] > n:
                raise ValueError(f"vertex index out of range in edge {edge}")
        super().__init__(n, normalized)

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, ...], ...]) -> "Hypergraph":
        """A hypergraph from edges already sorted, in range and distinct, with
        one nonzero size; none of it is checked again."""
        hypergraph = object.__new__(cls)
        _Record.__init__(hypergraph, n, edges)
        return hypergraph


def from_incidence(matrix: BinaryMatrix) -> Hypergraph:
    """Read each row as an edge over the 1-based column indices of its ones.
    Rows of unequal sums, all-zero rows and duplicate rows are rejected, as
    Hypergraph rejects the edges they would give."""
    # The end of each match of "1" is its 1-based column; the scan runs in C
    # and yields each edge sorted, without repeats and inside [1, ncols].
    edges = tuple(tuple(map(re.Match.end, _ONE.finditer(row))) for row in matrix.rows)
    _check_edge_set(edges)
    return Hypergraph._trusted(matrix.ncols, edges)


def _check_edge_set(edges: tuple[tuple[int, ...], ...]) -> None:
    """Reject edges of unequal sizes, empty edges and parallel edges: the
    checks of an edge list that concern no single edge's vertices."""
    sizes = set(map(len, edges))
    if len(sizes) > 1:
        raise ValueError("all edges must have the same size")
    if 0 in sizes:
        raise ValueError("edges must be nonempty")
    if len(set(edges)) != len(edges):
        raise ValueError("parallel edges are not allowed")


def to_incidence(hypergraph: Hypergraph) -> BinaryMatrix:
    """Inverse of from_incidence; row order follows edge order."""
    n = hypergraph.n
    return BinaryMatrix(tuple([_row_of_ones(edge, n, 1) for edge in hypergraph.edges]), n)


def degree_sequence(hypergraph: Hypergraph) -> tuple[int, ...]:
    """Vertex degrees sorted nonincreasingly."""
    counts = [0] * hypergraph.n
    for edge in hypergraph.edges:
        for vertex in edge:
            counts[vertex - 1] += 1
    return tuple(sorted(counts, reverse=True))


class RealizationResult(_Record):
    """Exactly one of: a realized hypergraph, an infeasibility verdict, or an
    unsupported-class report. `status` is realized, infeasible or
    unsupported."""

    _fields = ("status", "hypergraph", "feasibility", "reason")
    _required = 1


def realize(degrees: Iterable[int] | Sequence[int], h: int) -> RealizationResult:
    """Realize a degree sequence as an h-uniform hypergraph without parallel
    edges. Supported shapes are regular and span-one sequences, in any order:
    vertices 1..n0 take the larger degree of a span-one sequence. The degrees
    and h pass `check_degree_sequence` as given: a degree or edge size that
    is no integer, such as 2.5, 2.0 or "3", raises ValueError naming it."""
    check = check_degree_sequence(degrees, h)
    if check.kind == "unsupported":
        return RealizationResult("unsupported", reason="span>1")
    assert check.result is not None
    if not check.result.feasible:
        return RealizationResult("infeasible", feasibility=check.result)
    return RealizationResult(
        "realized", hypergraph=_witness(check.instance), feasibility=check.result
    )


def _witness(instance: RegularInstance | SpanOneInstance) -> Hypergraph:
    """The constructed hypergraph of a feasible instance, on the edges read
    off its checked plan.

    Keep this call: through it `realize` reaches the recursive Lyndon walk
    as deep as the benchmark's traced replay does, so both hit the
    interpreter's recursion limit at the same sizes."""
    built = _BUILDERS[type(instance)](instance)
    return Hypergraph._trusted(instance.n, built.edges)
