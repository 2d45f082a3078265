"""Fixed-density necklaces and Lyndon words.

Exact divisor-sum counting formulas and lexicographic generation, plus the
small number-theoretic helpers they need. All arithmetic is exact integer
arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .feasibility import _integers

__all__ = [
    "binomial",
    "common_divisors",
    "count_lyndon",
    "count_necklaces",
    "euler_phi",
    "gen_lyndon",
    "gen_necklaces",
    "mobius",
]


def common_divisors(n: int, h: int) -> list[int]:
    """Increasing list of the common divisors of n and h, from 1 to gcd(n,h)."""
    if n < 1 or h < 1:
        raise ValueError("common_divisors needs positive arguments")
    return _divisors(math.gcd(n, h))


def _prime_factors(j: int) -> list[int]:
    """The prime factors of j >= 1 by trial division, increasing, with multiplicity."""
    factors, p = [], 2
    while p * p <= j:
        while j % p == 0:
            factors.append(p)
            j //= p
        p += 1
    return factors + [j] if j > 1 else factors


def euler_phi(j: int) -> int:
    """Count of integers in [1, j] coprime to j."""
    if j < 1:
        raise ValueError("euler_phi needs a positive argument")
    primes = set(_prime_factors(j))
    return j // math.prod(primes) * math.prod(p - 1 for p in primes)


def mobius(j: int) -> int:
    """0 when j has a squared prime factor, else (-1)^(number of prime factors)."""
    if j < 1:
        raise ValueError("mobius needs a positive argument")
    factors = _prime_factors(j)
    return 0 if len(set(factors)) < len(factors) else (-1) ** len(factors)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 when k exceeds n."""
    if n < 0 or k < 0:
        raise ValueError("binomial needs nonnegative arguments")
    return math.comb(n, k)


def _check_density_class(n: int, d: int) -> None:
    _integers((n, d), "word length and density must be integers")
    if n < 1:
        raise ValueError("word length must be positive")
    if not 0 <= d <= n:
        raise ValueError(f"density must lie in [0, {n}], got {d}")


def _divisors(g: int) -> list[int]:
    return [j for j in range(1, g + 1) if g % j == 0]


def _divisor_sum(n: int, d: int, weight: Callable[[int], int]) -> int:
    """(1/n) * sum over j dividing gcd(n, d) of weight(j) * C(n/j, d/j): the
    count of necklaces (weight euler_phi) or Lyndon words (weight mobius)."""
    _check_density_class(n, d)
    total = sum(weight(j) * math.comb(n // j, d // j) for j in _divisors(math.gcd(n, d)))
    quotient, rest = divmod(total, n)
    assert rest == 0, "divisor sum must be a multiple of n"
    return quotient


def count_necklaces(n: int, d: int) -> int:
    """Number of binary necklaces of length n with exactly d ones."""
    return _divisor_sum(n, d, euler_phi)


def count_lyndon(n: int, d: int) -> int:
    """Number of binary Lyndon words of length n with exactly d ones."""
    return _divisor_sum(n, d, mobius)


# Most words a lazy stream takes from one walk. Its batches double from 1 up
# to this, so a stream read to its k-th word walks at most 2k words while
# k < _BATCH, and each later batch pays one O(n) descent to resume.
_BATCH = 256


def gen_lyndon(n: int, d: int) -> _Words:
    """Yield the Lyndon words of length n and density d in increasing
    lexicographic order. Each call returns an independent stream."""
    return _Words(n, d, lyndon=True)


def gen_necklaces(n: int, d: int) -> _Words:
    """Yield the canonical necklace representatives of length n and density d
    in increasing lexicographic order. Each call returns an independent stream."""
    return _Words(n, d, lyndon=False)


class _Words:
    """A lazy stream of the Lyndon words (or necklaces) of one density class
    in increasing lexicographic order, its class checked at the call. Read
    a word at a time, it walks 1, 2, 4, ... up to `_BATCH` words at once,
    each walk resumed after the last word of the one before; `first(k)`
    walks the class's first k words at once."""

    def __init__(self, n: int, d: int, lyndon: bool) -> None:
        _check_density_class(n, d)
        _word_buffer(n)
        self._n, self._d, self._lyndon = n, d, lyndon
        self._ahead: list[str] = []  # walked and not yet read, last word first
        self._after = ""  # the last word walked
        self._limit = 1  # words the next walk asks for; 0 once the class is done

    def __iter__(self) -> _Words:
        return self

    def __next__(self) -> str:
        ahead = self._ahead
        if not ahead:
            limit, after = self._limit, self._after
            if not limit:
                raise StopIteration
            # This frame starts the walk's first node itself: a method that
            # ran the walk would nest it one frame deeper below the reader.
            _nodes(self._n, self._d, limit, self._lyndon, after, ahead)(1, 1, 0, bool(after))
            self._limit = min(2 * limit, _BATCH) if len(ahead) == limit else 0
            if not ahead:
                raise StopIteration
            self._after = ahead[-1]
            ahead.reverse()
        return ahead.pop()

    def first(self, k: int) -> list[str]:
        """The class's first k >= 1 words, fewer when it has fewer, from one
        walk; what the stream has yielded so far does not matter."""
        words: list[str] = []
        _nodes(self._n, self._d, k, self._lyndon, "", words)(1, 1, 0, False)
        return words


def _word_buffer(n: int) -> bytearray:
    # ASCII '0'/'1' symbols, so a leaf is emitted by one C-level decode;
    # word[0] is the sentinel read by the copy step. CPython refuses a length
    # past the index range (OverflowError) or the address space (MemoryError)
    # before it allocates.
    try:
        return bytearray(b"0" * (n + 1))
    except (OverflowError, MemoryError):
        raise ValueError(f"word length {n} is too large to store") from None


def _nodes(
    n: int, d: int, limit: int, lyndon: bool, after: str, words: list[str]
) -> Callable[[int, int, int, bool], bool]:
    """The node function of one walk. Called as (1, 1, 0, bool(after)) it
    appends to `words` the first `limit` >= 1 Lyndon words (or necklaces)
    of length n and density d after the word `after` (from the first when
    it is empty), in increasing lexicographic order, fewer when the order
    runs out, and returns True when it found `limit`."""
    # Fredricksen-Kessler-Maiorana recursion over prenecklaces, with branches
    # that cannot reach exactly d ones pruned away. Trying 0 before 1 at every
    # position makes the output order lexicographic; a leaf (all n symbols
    # set) is a necklace when its longest-prefix period p divides n, and a
    # Lyndon word when p == n.
    #
    # A node that already holds all d >= 1 ones but not all n symbols is cut:
    # the word would end in 0, and a necklace with a 1 ends in 1 (rotating a
    # trailing 0 to the front gives a smaller word). Without that cut each
    # placement of the last one walks O(n) zeros to a leaf it then rejects;
    # with it (n, 2) visits Theta(n^2) nodes, not Theta(n^3).
    #
    # The walk is plain calls that append each leaf to `words` and unwind
    # once it holds `limit`, so a word costs no climb through the frames
    # above it. A node tests its children against both prunes before it
    # calls them, so every call is a node of the tree. To resume, the walk
    # goes down the path of `after` (`resume`) and takes only the branches
    # right of it, skipping `after` itself.
    #
    # The walk stays over bits, one frame per position, and the node at
    # position n tests its leaf itself rather than calling down once more:
    # the first word, 0^(n-d) 1^d, nests n frames below the caller of the
    # first node, the `_Words` method that the reader of the words calls,
    # so n stays capped just below the recursion limit. A walk over the d
    # gaps between ones would lift that cap, and with it change which long
    # instances build.
    zero, one = ord("0"), ord("1")
    word = _word_buffer(n)
    path = b"0" + after.encode()

    def extend(t: int, p: int, ones: int, resume: bool) -> bool:
        # Set position t of a node that can still reach d ones and is not
        # cut: t-1 symbols set, `ones` of them ones (d - 1 <= ones < d at t
        # = n, unless d = 0), p their period. True once `words` is full.
        copied = word[t - p]
        if t == n:
            # Its one leaf: a 1 after a copied 0 (period n), or the copy
            # (period p). On the path of `after` that leaf is `after`.
            if resume:
                return False
            if copied == zero and d:
                word[t] = one
            elif (p != n) if lyndon else (n % p):
                return False
            else:
                word[t] = copied
            words.append(word[1:].decode())
            return len(words) == limit
        # A child at position t + 1 <= n must have room for the ones it
        # lacks, d - ones <= n - t, and is cut when it holds all d >= 1 ones.
        if copied == zero:
            if d - ones <= n - t and (not resume or path[t] == zero):
                word[t] = zero
                if extend(t + 1, p, ones, resume):
                    return True
            if ones + 1 < d:
                word[t] = one
                return extend(t + 1, t, ones + 1, resume and path[t] == one)
        elif ones + 1 < d:
            word[t] = one
            return extend(t + 1, p, ones + 1, resume)
        return False

    return extend
