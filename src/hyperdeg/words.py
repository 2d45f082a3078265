"""Binary words under cyclic shift.

Periods, lexicographically-least canonical forms, Lyndon tests, and the
matrices obtained by stacking the distinct rotations of a word. The single
shift convention used everywhere is left rotation: the first symbol moves to
the end. `_coset_block` is the one definition of the coset blocks of
0^(n-h) 1^h, as rotations of that word: `block_submatrix` renders them, and
the construction plans from them. `_row_of_ones` is the one rule that turns
a row's one-positions into its '0'/'1' string.

Input is checked where it enters: each public function checks its word, and
the `BinaryMatrix` constructor checks every row it is given once, for rows
from outside. Internal builders trust the layer before them: `_rotations`
trusts the word its caller has checked, and `shift_matrix` and
`block_submatrix` store the rows they build from a checked word or checked
sizes through `BinaryMatrix._trusted`, unchecked. `transpose` alone builds
through the constructor, which refuses the transpose of a matrix with no rows.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator, Sequence
from .feasibility import _integers, _Record

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


_NOT_BINARY = re.compile("[^01]")


def _preview(w: str) -> str:
    """The word, or its first 20 symbols and its length when it is longer."""
    return repr(w) if len(w) <= 24 else f"{w[:20]!r}... ({len(w)} symbols)"


def _bad_symbol(w: str) -> str | None:
    """Where w holds a symbol other than '0' and '1', or None if it does not."""
    bad = _NOT_BINARY.search(w)
    if bad is None:
        return None
    return f"symbol {bad.group()!r} at column {bad.start() + 1}; only '0' and '1' are allowed"


def _check_word(w: str) -> str:
    if not w:
        raise ValueError("binary word must be nonempty")
    problem = _bad_symbol(w)
    if problem:
        raise ValueError(f"binary word has {problem}: {_preview(w)}")
    return w


def _rotations(word: str, shifts: Iterable[int]) -> tuple[str, ...]:
    """The left rotations of a checked word by each of `shifts`, all in
    [0, len(word))."""
    n = len(word)
    doubled = word + word
    return tuple([doubled[k : k + n] for k in shifts])


def _row_of_ones(ones: Iterable[int], n: int, base: int = 0) -> str:
    """The '0'/'1' row of n columns with a one in each column of `ones`,
    columns numbered from `base` (0, or 1 for a hypergraph's vertices); each
    column must lie in base .. base+n-1."""
    row = bytearray(b"0" * (base + n))
    for j in ones:
        row[j] = ord("1")
    return row[base:].decode()


def _coset_block(n: int, h: int, j: int) -> tuple[str, list[int]]:
    """The j-th coset block of the rotation class of 0^(n-h) 1^h, for
    0 <= j < gcd(n,h): that word and the left rotations of it that are the
    block's rows, n-j + i*h mod n for i < n/gcd(n,h), which are the word
    1^j 0^(n-h) 1^(h-j) shifted by multiples of h. For h = 0 or n, block 0
    is one row."""
    return "0" * (n - h) + "1" * h, [(n - j + i * h) % n for i in range(n // math.gcd(n, h))]


def _row_blocks(rows: Sequence, ncols: int, symbols: int) -> Iterator[tuple[int, Sequence]]:
    """(index of the first row, rows) for consecutive runs of rows of `ncols`
    symbols each holding at most `symbols` symbols, one row at the least;
    joining a run bounds the copy. A run is a slice of `rows`."""
    step = max(1, symbols // ncols)
    return ((start, rows[start : start + step]) for start in range(0, len(rows), step))


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
    return (w + w).find(w, 1)


def canonical(w: str) -> str:
    """Lexicographically least rotation of w (the necklace representative)."""
    _check_word(w)
    return min(w[i:] + w[:i] for i in range(len(w)))


def is_lyndon(w: str) -> bool:
    """True iff w is aperiodic and lexicographically least among its rotations."""
    return canonical(w) == w and period(w) == len(w)


class BinaryMatrix(_Record):
    """Ordered list of equal-length binary rows, with projection helpers."""

    _fields = ("rows", "ncols")

    def __init__(self, rows: Iterable[str], ncols: int) -> None:
        rows, n = tuple(rows), ncols
        _integers((n,), "column count must be an integer")
        if n < 1:
            raise ValueError("matrix needs at least one column")
        # C-level passes over blocks of joined rows; only a failing block is
        # walked row by row. The encode copies its block, so blocks stay small;
        # it turns every non-ASCII symbol, lone surrogates too, into '?', which
        # the bytes translate keeps as it drops each '0' and '1'.
        for start, block in _row_blocks(rows, n, 1 << 16):
            if set(map(len, block)) != {n} or "".join(block).encode(
                "ascii", "replace"
            ).translate(None, b"01"):
                for i, row in enumerate(block, start + 1):
                    problem = _bad_symbol(row)
                    if problem:
                        raise ValueError(f"row {i} has {problem}: {_preview(row)}")
                    if len(row) != n:
                        raise ValueError(
                            f"row {i} has {len(row)} columns, not {n}: {_preview(row)}"
                        )
        super().__init__(rows, n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(row.count("1") for row in self.rows)

    def col_sums(self) -> tuple[int, ...]:
        # Column j of joined rows is every n-th character from j: a strided
        # slice counts it in C.
        n = self.ncols
        sums = [0] * n
        for _, rows in _row_blocks(self.rows, n, 1 << 20):
            block = "".join(rows)
            for j in range(n):
                sums[j] += block[j::n].count("1")
        return tuple(sums)

    def transpose(self) -> "BinaryMatrix":
        """Columns as rows; a matrix with no rows has no transpose and raises."""
        return BinaryMatrix(tuple(map("".join, zip(*self.rows))), self.nrows)


def shift_matrix(u: str) -> BinaryMatrix:
    """All distinct cyclic shifts of u stacked row-wise, in shift order.

    The matrix has period(u) rows and homogeneous column sums equal to
    density(u) * period(u) / len(u).
    """
    return BinaryMatrix._trusted(_rotations(u, range(period(u))), len(u))


def block_submatrix(n: int, h: int, j: int) -> BinaryMatrix:
    """The j-th coset block of the rotation class of 0^(n-h) 1^h.

    Rows are the shifts by multiples of h of the word 1^j 0^(n-h) 1^(h-j);
    there are n/gcd(n,h) of them and every column sums to h/gcd(n,h). The
    blocks for j = 0 .. gcd(n,h)-1 partition the full rotation class.
    """
    _integers((n, h, j), "word length, density and block index must be integers")
    if not 1 <= h <= n - 1:
        raise ValueError(f"need 1 <= h <= n-1, got n={n}, h={h}")
    g = math.gcd(n, h)
    if not 0 <= j < g:
        raise ValueError(f"block index must lie in [0, {g}), got {j}")
    return BinaryMatrix._trusted(_rotations(*_coset_block(n, h, j)), n)
