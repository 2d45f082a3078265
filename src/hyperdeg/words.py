"""Binary words under cyclic shift.

Periods, lexicographically-least canonical forms, Lyndon tests, and the
matrices obtained by stacking the distinct rotations of a word. The single
shift convention used everywhere is left rotation: the first symbol moves to
the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BinaryMatrix",
    "block_submatrix",
    "canonical",
    "cyclic_shift",
    "density",
    "is_lyndon",
    "period",
    "shift_matrix",
]


def _check_word(w: str) -> str:
    if not w:
        raise ValueError("binary word must be nonempty")
    if set(w) - {"0", "1"}:
        raise ValueError(f"binary word may only contain '0' and '1': {w!r}")
    return w


def density(w: str) -> int:
    """Number of 1-symbols in the word."""
    return _check_word(w).count("1")


def cyclic_shift(w: str, k: int = 1) -> str:
    """Left-rotate w by k positions; one step sends u1 u2 ... un to u2 ... un u1."""
    _check_word(w)
    k %= len(w)
    return w[k:] + w[:k]


def period(w: str) -> int:
    """Smallest p >= 1 with cyclic_shift(w, p) == w; always divides len(w)."""
    _check_word(w)
    n = len(w)
    for p in range(1, n):
        if n % p == 0 and w == w[p:] + w[:p]:
            return p
    return n


def canonical(w: str) -> str:
    """Lexicographically least rotation of w (the necklace representative)."""
    _check_word(w)
    return min(w[i:] + w[:i] for i in range(len(w)))


def is_lyndon(w: str) -> bool:
    """True iff w is aperiodic and lexicographically least among its rotations."""
    return canonical(w) == w and period(w) == len(w)


@dataclass(frozen=True)
class BinaryMatrix:
    """Ordered list of equal-length binary rows, with projection helpers."""

    rows: tuple[str, ...]
    ncols: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.ncols < 1:
            raise ValueError("matrix needs at least one column")
        for row in self.rows:
            _check_word(row)
            if len(row) != self.ncols:
                raise ValueError(f"row {row!r} does not have {self.ncols} columns")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(row.count("1") for row in self.rows)

    def col_sums(self) -> tuple[int, ...]:
        # Column j of joined rows is every n-th character from j: a strided
        # slice counts it in C. Joining 2^20 characters at a time bounds the copy.
        n = self.ncols
        sums = [0] * n
        step = max(1, (1 << 20) // n)
        for start in range(0, len(self.rows), step):
            block = "".join(self.rows[start : start + step])
            for j in range(n):
                sums[j] += block[j::n].count("1")
        return tuple(sums)

    def transpose(self) -> "BinaryMatrix":
        """Columns as rows; a matrix with no rows has no transpose and raises."""
        return BinaryMatrix(tuple(map("".join, zip(*self.rows))), self.nrows)

    def to_lines(self) -> str:
        return "\n".join(self.rows)

    def to_csv(self) -> str:
        return "\n".join(",".join(row) for row in self.rows)


def shift_matrix(u: str) -> BinaryMatrix:
    """All distinct cyclic shifts of u stacked row-wise, in shift order.

    The matrix has period(u) rows and homogeneous column sums equal to
    density(u) * period(u) / len(u).
    """
    p = period(u)
    return BinaryMatrix(tuple(cyclic_shift(u, i) for i in range(p)), len(u))


def block_submatrix(n: int, h: int, j: int) -> BinaryMatrix:
    """The j-th coset block of the rotation class of 0^(n-h) 1^h.

    Rows are the shifts by multiples of h of the word 1^j 0^(n-h) 1^(h-j);
    there are n/gcd(n,h) of them and every column sums to h/gcd(n,h). The
    blocks for j = 0 .. gcd(n,h)-1 partition the full rotation class.
    """
    if not 1 <= h <= n - 1:
        raise ValueError(f"need 1 <= h <= n-1, got n={n}, h={h}")
    g = math.gcd(n, h)
    if not 0 <= j < g:
        raise ValueError(f"block index must lie in [0, {g}), got {j}")
    word = "1" * j + "0" * (n - h) + "1" * (h - j)
    return BinaryMatrix(tuple(cyclic_shift(word, i * h) for i in range(n // g)), n)
