"""Fixed-density necklaces and Lyndon words.

Exact divisor-sum counting formulas and lexicographic generation, plus the
small number-theoretic helpers they need. All arithmetic is exact integer
arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator

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


def gen_lyndon(n: int, d: int) -> Iterator[str]:
    """Yield the Lyndon words of length n and density d in increasing
    lexicographic order. Each call returns an independent stream."""
    return _generate(n, d, lyndon=True)


def gen_necklaces(n: int, d: int) -> Iterator[str]:
    """Yield the canonical necklace representatives of length n and density d
    in increasing lexicographic order. Each call returns an independent stream."""
    return _generate(n, d, lyndon=False)


def _generate(n: int, d: int, lyndon: bool) -> Iterator[str]:
    # Fredricksen-Kessler-Maiorana recursion over prenecklaces, with branches
    # that cannot reach exactly d ones pruned away. Trying 0 before 1 at every
    # position makes the output order lexicographic; a leaf at depth n is a
    # necklace when its longest-prefix period p divides n, and a Lyndon word
    # when p == n. The density class and the word buffer are checked at the
    # call, not at the first word.
    #
    # A node that already holds all d >= 1 ones but not all n symbols is cut:
    # the word would end in 0, and a necklace with a 1 ends in 1 (rotating a
    # trailing 0 to the front gives a smaller word). Without that cut each
    # placement of the last one walks O(n) zeros to a leaf it then rejects;
    # with it (n, 2) visits Theta(n^2) nodes, not Theta(n^3).
    #
    # The walk stays over bits, one frame per position: the first word,
    # 0^(n-d) 1^d, nests n + 1 frames, so n stays capped just below the
    # recursion limit. A walk over the d gaps between ones would lift that
    # cap, and with it change which long instances build.
    _check_density_class(n, d)
    zero, one = ord("0"), ord("1")
    # ASCII '0'/'1' symbols, so a leaf is emitted by one C-level decode;
    # word[0] is the sentinel read by the copy step. CPython refuses a length
    # past the index range (OverflowError) or the address space (MemoryError)
    # before it allocates.
    try:
        word = bytearray(b"0" * (n + 1))
    except (OverflowError, MemoryError):
        raise ValueError(f"word length {n} is too large to store") from None

    def extend(t: int, p: int, ones: int) -> Iterator[str]:
        if ones > d or d - ones > n - t + 1:
            return
        if t > n:
            emit = (p == n) if lyndon else (n % p == 0)
            if emit:
                yield word[1:].decode()
            return
        if ones == d and d:
            return
        copied = word[t - p]
        word[t] = copied
        yield from extend(t + 1, p, ones + (copied == one))
        if copied == zero:
            word[t] = one
            yield from extend(t + 1, t, ones + 1)

    return extend(1, 1, 0)
