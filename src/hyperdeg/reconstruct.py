"""Constructions for distinct-row binary matrices with homogeneous row sums
and homogeneous or span-one column sums.

The homogeneous build walks the common divisors d of (n, h) in increasing
order. The level for divisor d stacks full rotation classes of d-fold tiled
Lyndon words of length n/d and density h/d, each class adding h/d to every
column sum. When the still-needed column sum cannot be met by full classes
alone, the level withholds the word 0^(n/d-h/d) 1^(h/d) from the selection
and closes the gap with that word's coset blocks instead, each adding
h/gcd(n,h) per column. Rows are emitted level by level, classes in
lexicographic word order, shifts in shift order, blocks last; identical
inputs therefore produce bit-identical outputs.

The span-one build lifts the instance to the smallest strictly larger
homogeneous one whose total fits the divisibility constraints, builds that,
and deletes leading rows of the embedded coset block of 0^(n-h) 1^h. They
lower every column alike but the last n1, which drop one further, so the
columns already descend by sum and are never reordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .feasibility import (
    Feasibility,
    RegularInstance,
    SpanOneInstance,
    check_regular,
    check_span_one,
)
from .necklaces import common_divisors, count_lyndon, gen_lyndon
from .words import BinaryMatrix, _rotations

__all__ = [
    "ConstructionInvariantError",
    "LevelPlan",
    "RegularReconstruction",
    "SpanOneReconstruction",
    "VerifyResult",
    "rec_regular",
    "rec_regular_with_plan",
    "rec_span_one",
    "rec_span_one_with_plan",
    "twin_free_bipartite",
    "verify",
]


class ConstructionInvariantError(RuntimeError):
    """A feasible instance failed mid-construction; this indicates a bug, not
    bad input. `instance` is the instance being built and `divisor` the
    divisor level where the invariant failed, None when it failed after the
    levels."""

    def __init__(
        self,
        problem: str,
        instance: RegularInstance | SpanOneInstance,
        divisor: int | None = None,
    ) -> None:
        level = "" if divisor is None else f" at divisor level {divisor}"
        super().__init__(f"{problem}{level} of {instance}")
        self.instance = instance
        self.divisor = divisor


@dataclass(frozen=True)
class LevelPlan:
    """What one divisor level contributed to the output matrix."""

    divisor: int
    length: int  # reduced word length n/divisor
    density: int  # reduced word density h/divisor
    full_words: int  # Lyndon words expanded to full rotation classes
    partial_blocks: int  # coset blocks of the reserved word, 0 unless filling
    offset: int  # first output row written by this level
    reserved_offset: int | None  # row where the reserved word's class starts
    blocks_offset: int | None  # row where the coset blocks start

    def to_json_dict(self) -> dict:
        return {
            "divisor": self.divisor,
            "length": self.length,
            "density": self.density,
            "full_words": self.full_words,
            "partial_blocks": self.partial_blocks,
        }


@dataclass(frozen=True)
class RegularReconstruction:
    instance: RegularInstance
    matrix: BinaryMatrix
    levels: tuple[LevelPlan, ...]

    def plan_json(self) -> dict:
        return {"levels": [level.to_json_dict() for level in self.levels]}


@dataclass(frozen=True)
class SpanOneReconstruction:
    instance: SpanOneInstance
    matrix: BinaryMatrix
    lifted_ones: int  # total ones of the intermediate homogeneous instance
    lifted_rows: int  # its row count
    lifted_degree: int  # its homogeneous column sum
    rows_deleted: int
    column_order: tuple[int, ...]
    levels: tuple[LevelPlan, ...]  # plan of the intermediate build

    def plan_json(self) -> dict:
        return {
            "lifted_ones": self.lifted_ones,
            "lifted_rows": self.lifted_rows,
            "lifted_degree": self.lifted_degree,
            "rows_deleted": self.rows_deleted,
            "column_order": list(self.column_order),
            "levels": [level.to_json_dict() for level in self.levels],
        }


def rec_regular(inst: RegularInstance) -> BinaryMatrix:
    """Construct an m x n matrix with distinct rows, row sums h and column
    sums v. The instance must pass check_regular."""
    return rec_regular_with_plan(inst).matrix


def rec_regular_with_plan(inst: RegularInstance) -> RegularReconstruction:
    rows, levels = _build_regular(inst)
    return RegularReconstruction(inst, BinaryMatrix(tuple(rows), inst.n), levels)


def _build_regular(inst: RegularInstance) -> tuple[list[str], tuple[LevelPlan, ...]]:
    """Rows and level plans of the homogeneous build, unchecked: every row is
    a rotation of a word built here, and the caller checks the matrix once."""
    feas = check_regular(inst)
    if not feas.feasible:
        raise ValueError(f"infeasible homogeneous instance ({feas.violated})")
    n, m, h, v = inst.n, inst.m, inst.h, inst.v
    if m == 0:
        return [], ()
    if h == 0:
        # Feasibility caps m at 1: a single all-zero row.
        return ["0" * n] * m, ()
    if h == n:
        # Capacity forces v <= 1, hence m <= 1: a single all-ones row.
        return ["1" * n] * m, ()

    rows: list[str] = []
    levels: list[LevelPlan] = []
    remaining = v
    for d in common_divisors(n, h):
        if remaining == 0:
            break
        length, dens = n // d, h // d
        available = count_lyndon(length, dens)
        q = min(remaining // dens, available)
        fill_here = remaining - q * dens > 0 and q < available
        reserved = "0" * (length - dens) + "1" * dens
        offset = len(rows)
        reserved_offset: int | None = None
        taken = 0
        # A Lyndon word is aperiodic, so its d-fold tiling has `length`
        # distinct rotations: the rows of shift_matrix(word * d).
        for word in gen_lyndon(length, dens):
            if taken == q:
                break
            if word == reserved:
                if fill_here:
                    continue
                reserved_offset = len(rows)
            rows.extend(_rotations(word * d, length, 1))
            taken += 1
        if taken != q:
            raise ConstructionInvariantError("ran out of Lyndon words", inst, d)
        remaining -= q * dens
        blocks = 0
        blocks_offset: int | None = None
        if fill_here:
            g = math.gcd(length, dens)
            if (remaining * g) % dens:
                raise ConstructionInvariantError("coset fill is not integral", inst, d)
            blocks = remaining * g // dens
            blocks_offset = len(rows)
            for j in range(blocks):
                # block_submatrix(length, dens, j) with every row tiled d times.
                block_word = "1" * j + "0" * (length - dens) + "1" * (dens - j)
                rows.extend(_rotations(block_word * d, length // g, dens))
            remaining = 0
        levels.append(
            LevelPlan(d, length, dens, q, blocks, offset, reserved_offset, blocks_offset)
        )
    if remaining != 0:
        raise ConstructionInvariantError("column sums left unmet after all levels", inst)
    if len(rows) != m:
        raise ConstructionInvariantError(f"built {len(rows)} rows, expected {m}", inst)
    return rows, tuple(levels)


def rec_span_one(inst: SpanOneInstance) -> BinaryMatrix:
    """Construct an m x n matrix with distinct rows, row sums h, n0 columns
    summing to v then n1 columns summing to v-1, an order the construction
    yields without permuting columns. The instance must pass check_span_one."""
    return rec_span_one_with_plan(inst).matrix


def rec_span_one_with_plan(inst: SpanOneInstance) -> SpanOneReconstruction:
    feas = check_span_one(inst)
    if not feas.feasible:
        raise ValueError(f"infeasible span-one instance ({feas.violated})")
    n, h, m = inst.n, inst.h, inst.m

    # Lift to the smallest total above h*m that lcm(n, h) divides. As h*m =
    # n*v - n1 is no multiple of n, deleted = lifted_rows - m < n/gcd(n, h).
    step = n * h // math.gcd(n, h)
    lifted_ones = (h * m // step + 1) * step
    lifted_rows = lifted_ones // h
    lifted_degree = lifted_ones // n
    rows, levels = _build_regular(RegularInstance(n=n, m=lifted_rows, h=h, v=lifted_degree))
    deleted = lifted_rows - m

    # The base level always embeds the class of 0^(n-h) 1^h, either whole or
    # as coset blocks; drop its first `deleted` shift-by-h rows.
    base_level = levels[0]
    if base_level.blocks_offset is not None:
        del rows[base_level.blocks_offset : base_level.blocks_offset + deleted]
    elif base_level.reserved_offset is not None:
        # The whole class is the n rotations from reserved_offset in shift order.
        start = base_level.reserved_offset
        doomed = {(i * h) % n for i in range(deleted)}
        whole_class = rows[start : start + n]
        rows[start : start + n] = [row for k, row in enumerate(whole_class) if k not in doomed]
    else:
        raise ConstructionInvariantError(
            "reserved class missing from base level", inst, base_level.divisor
        )

    # Deleted row i has its ones at [n-(i+1)h, n-ih) mod n, so the deleted rows
    # cover n*(lifted_degree - v) + n1 cells running down from column n-1: only
    # the last n1 columns drop to v-1, and the columns need no reordering.
    matrix = BinaryMatrix(tuple(rows), n)
    if matrix.col_sums() != inst.degree_vector():
        raise ConstructionInvariantError("column sums missed the target vector", inst)
    return SpanOneReconstruction(
        instance=inst,
        matrix=matrix,
        lifted_ones=lifted_ones,
        lifted_rows=lifted_rows,
        lifted_degree=lifted_degree,
        rows_deleted=deleted,
        column_order=tuple(range(n)),
        levels=levels,
    )


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of checking a matrix against an instance; `problem` names the
    first failing property."""

    ok: bool
    problem: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify(
    matrix: BinaryMatrix, instance: RegularInstance | SpanOneInstance
) -> VerifyResult:
    """True iff the matrix has the instance's shape, pairwise distinct rows,
    every row sum equal to h, and column sums matching the instance's degree
    vector as a multiset."""
    try:
        expected_m = instance.m
    except ValueError:
        return VerifyResult(False, "shape")
    if matrix.ncols != instance.n or matrix.nrows != expected_m:
        return VerifyResult(False, "shape")
    if len(set(matrix.rows)) != matrix.nrows:
        return VerifyResult(False, "duplicate rows")
    if any(s != instance.h for s in matrix.row_sums()):
        return VerifyResult(False, "row sum")
    if tuple(sorted(matrix.col_sums(), reverse=True)) != instance.degree_vector():
        return VerifyResult(False, "column sum")
    return VerifyResult(True)


def twin_free_bipartite(n: int, k: int) -> BinaryMatrix:
    """Biadjacency matrix of a k-regular bipartite graph on n + n vertices
    with no twins: symmetric, distinct rows, distinct columns."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got n={n}, k={k}")
    return rec_regular(RegularInstance(n=n, m=n, h=k, v=k))
