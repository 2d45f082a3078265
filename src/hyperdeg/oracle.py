"""Exhaustive ground truth for small projection instances.

Deliberately independent of the constructive algorithms and of the
Gale-Ryser test: plain depth-first search over candidate rows with only
sound capacity pruning. Guarded by hard size caps; intended for verifying
the fast paths, and exposed through the CLI for the same purpose.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from operator import gt

from .feasibility import _integers, _Record
from .words import BinaryMatrix, _row_of_ones

__all__ = [
    "MAX_ANY_MATRIX_SIDE",
    "MAX_DISTINCT_ROWS_COLS",
    "OracleResult",
    "exists_any_matrix",
    "exists_distinct_rows",
]

MAX_DISTINCT_ROWS_COLS = 8
MAX_ANY_MATRIX_SIDE = 5


class OracleResult(_Record):
    """Answer of an exhaustive search: whether a matrix exists, and the
    witness found when one does (None otherwise)."""

    _fields = ("exists", "witness")
    _required = 1


def _candidate_rows(n: int, h: int) -> list[tuple[int, ...]]:
    """Positions of the ones of every length-n density-h word, ordered so the
    corresponding words are lexicographically increasing: two such words first
    differ at the least position in just one of their sets of ones, and the
    word with a 1 there is the larger, so the position tuples run decreasing."""
    return list(combinations(range(n), h))[::-1]


def exists_distinct_rows(n: int, h: int, col_sums: Sequence[int]) -> OracleResult:
    """Search for a binary matrix with pairwise distinct rows, each summing
    to h, whose column sums equal col_sums. Sound and complete within the
    size guard; the witness, when present, is the lexicographically least
    row selection."""
    _integers((n,), "column count must be an integer")
    if n < 1:
        raise ValueError("column count must be positive")
    if n > MAX_DISTINCT_ROWS_COLS:
        raise ValueError(
            f"column count capped at {MAX_DISTINCT_ROWS_COLS} for exhaustive search"
        )
    if len(col_sums) != n:
        raise ValueError("column-sum vector length must equal n")
    if any(x < 0 for x in col_sums):
        raise ValueError("column sums must be nonnegative")
    if h < 0:
        raise ValueError("row sum must be nonnegative")
    total = sum(col_sums)
    if h == 0:
        # Only all-zero rows are available and at most one may appear.
        if total:
            return OracleResult(False)
        return OracleResult(True, BinaryMatrix._trusted((), n))
    m, rest = divmod(total, h)
    if rest:
        # No integral row count: no matrix has these column sums.
        return OracleResult(False)
    # With h > n no row fits, and combinations(range(n), h) would first
    # allocate h indices: a huge h is a MemoryError, not an answer.
    candidates = _candidate_rows(n, h) if h <= n else []
    if m > len(candidates):
        return OracleResult(False)

    # ones_from[i][j]: how many candidates from index i on have a one in
    # column j; a column that needs more ones than that cannot be filled.
    ones_from = [[0] * n]
    for ones in reversed(candidates):
        counts = ones_from[-1][:]
        for j in ones:
            counts[j] += 1
        ones_from.append(counts)
    ones_from.reverse()
    remaining = list(col_sums)
    chosen: list[int] = []

    def search(start: int, rows_left: int) -> bool:
        if rows_left == 0:
            # sum(remaining) == rows_left * h throughout, so all zeros here.
            return True
        if len(candidates) - start < rows_left:
            return False
        if max(remaining) > rows_left:
            return False
        if any(map(gt, remaining, ones_from[start])):
            return False
        for idx in range(start, len(candidates)):
            ones = candidates[idx]
            if all(remaining[j] > 0 for j in ones):
                for j in ones:
                    remaining[j] -= 1
                chosen.append(idx)
                if search(idx + 1, rows_left - 1):
                    return True
                chosen.pop()
                for j in ones:
                    remaining[j] += 1
        return False

    if search(0, m):
        rows = tuple(_row_of_ones(candidates[i], n) for i in chosen)
        return OracleResult(True, BinaryMatrix._trusted(rows, n))
    return OracleResult(False)


def exists_any_matrix(row_sums: Sequence[int], col_sums: Sequence[int]) -> bool:
    """Exhaustively decide whether any binary matrix (duplicate rows allowed)
    has the given row and column sums."""
    m, n = len(row_sums), len(col_sums)
    if m > MAX_ANY_MATRIX_SIDE or n > MAX_ANY_MATRIX_SIDE:
        raise ValueError(
            f"sides capped at {MAX_ANY_MATRIX_SIDE} for exhaustive search"
        )
    if any(x < 0 for x in row_sums) or any(x < 0 for x in col_sums):
        raise ValueError("projections must be nonnegative")
    if sum(row_sums) != sum(col_sums):
        return False
    if m == 0 or n == 0:
        return True  # totals match, so both sides are all zero
    rows = sorted(row_sums, reverse=True)
    if rows[0] > n:
        return False
    options = {h: list(combinations(range(n), h)) for h in set(rows)}
    remaining = list(col_sums)

    def fill(i: int, min_idx: int) -> bool:
        if i == m:
            return True  # totals invariant forces remaining == 0
        if max(remaining) > m - i:
            return False
        opts = options[rows[i]]
        # Equal row sums are interchangeable: force nondecreasing option
        # indices across such rows (duplicates stay allowed).
        start = min_idx if i > 0 and rows[i] == rows[i - 1] else 0
        for idx in range(start, len(opts)):
            ones = opts[idx]
            if all(remaining[j] > 0 for j in ones) or not ones:
                for j in ones:
                    remaining[j] -= 1
                if fill(i + 1, idx):
                    return True
                for j in ones:
                    remaining[j] += 1
        return False

    return fill(0, 0)
