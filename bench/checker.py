"""Independent checks of hyperdeg's outputs.

Nothing here imports hyperdeg. Witnesses are checked from first principles
(distinct rows, every row or edge of size h, the degree multiset, m = sum/h)
and verdicts are compared with a decider of the benchmark's own that applies
the paper's three conditions with a bounded capacity comparison.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    """What check_degree_sequence should report: the degree class, and for a
    supported class whether it is feasible, the first violated condition and
    the row count (None when no integral row count exists)."""

    kind: str
    feasible: bool | None
    violated: str | None
    m: int | None


def capacity_reaches(n: int, h: int, need: int) -> bool:
    """True iff C(n, h) >= need. Builds C(n, i) step by step over
    i <= min(h, n - h) and stops as soon as it reaches `need`, so a small
    need costs a few steps however large n is."""
    if not 0 <= h <= n:
        return need <= 0
    c = 1
    if c >= need:
        return True
    for i in range(1, min(h, n - h) + 1):
        c = c * (n - i + 1) // i
        if c >= need:
            return True
    return False


def decide(degrees: Sequence[int], h: int) -> Verdict:
    """Reference verdict for a degree sequence and edge size h >= 1: bounds
    (h <= n, max degree <= m), totals (sum divisible by h), then capacity
    v*n <= h*C(n,h) with v the largest degree."""
    n = len(degrees)
    hi, lo = max(degrees), min(degrees)
    if hi - lo > 1:
        return Verdict("unsupported", None, None, None)
    kind = "regular" if hi == lo else "span-one"
    total = sum(degrees)
    if total % h:
        return Verdict(kind, False, "integrality", None)
    m = total // h
    if h > n or hi > m:
        return Verdict(kind, False, "cond2", m)
    # v*n <= h*C(n,h)  <=>  C(n,h) >= ceil(v*n / h)
    if not capacity_reaches(n, h, -(-hi * n // h)):
        return Verdict(kind, False, "cond3", m)
    return Verdict(kind, True, None, m)


def verdict_problem(expected: Verdict, kind: str, result) -> str | None:
    """Compare a DegreeCheck's kind and Feasibility with the reference."""
    if kind != expected.kind:
        return f"kind {kind!r}, expected {expected.kind!r}"
    if result is None:
        return None if expected.feasible is None else "no verdict"
    got = (result.feasible, result.violated, result.m)
    want = (expected.feasible, expected.violated, expected.m)
    return None if got == want else f"verdict {got}, expected {want}"


def _row_count_problem(count: int, degrees: Sequence[int], h: int) -> str | None:
    total = sum(degrees)
    if total % h:
        return "degree total not divisible by h"
    if count != total // h:
        return f"{count} rows, expected {total // h}"
    return None


def rows_problem(rows: Sequence[str], n: int, h: int, degrees: Sequence[int]) -> str | None:
    """None when `rows` are m = sum(degrees)/h pairwise distinct '0'/'1'
    strings of length n, each with h ones, whose column sums are the degree
    multiset; otherwise the first problem found."""
    problem = _row_count_problem(len(rows), degrees, h)
    if problem:
        return problem
    if len(set(rows)) != len(rows):
        return "duplicate rows"
    sums = [0] * n
    for row in rows:
        if len(row) != n or row.count("1") != h or row.count("0") != n - h:
            return f"row {row[:40]!r}... is not a size-{h} subset of {n} columns"
        j = row.find("1")
        while j >= 0:
            sums[j] += 1
            j = row.find("1", j + 1)
    if sorted(sums) != sorted(degrees):
        return "column sums are not the degree multiset"
    return None


def edges_problem(
    edges: Sequence[Sequence[int]], n: int, h: int, degrees: Sequence[int]
) -> str | None:
    """The same check for 1-based edge lists, each edge strictly increasing."""
    problem = _row_count_problem(len(edges), degrees, h)
    if problem:
        return problem
    seen = set()
    counts = [0] * (n + 1)
    for edge in edges:
        edge = tuple(edge)
        if len(edge) != h or any(a >= b for a, b in zip(edge, edge[1:])):
            return f"edge {edge[:8]} is not an increasing {h}-set"
        if edge[0] < 1 or edge[-1] > n:
            return f"edge {edge[:8]} leaves vertices 1..{n}"
        if edge in seen:
            return "parallel edges"
        seen.add(edge)
        for x in edge:
            counts[x] += 1
    if sorted(counts[1:]) != sorted(degrees):
        return "vertex degrees are not the degree multiset"
    return None


def edges_to_rows(edges: Iterable[Sequence[int]], n: int) -> list[str]:
    """Incidence rows of 1-based edges, in edge order."""
    rows = []
    for edge in edges:
        row = bytearray(b"0" * n)
        for x in edge:
            row[x - 1] = 49  # ord("1")
        rows.append(row.decode())
    return rows


def witness_digest(rows: Iterable[str]) -> str:
    """SHA-256 of the rows in emitted order, joined by newlines: the form of
    `hyperdeg reconstruct --format lines` without its final newline."""
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()
