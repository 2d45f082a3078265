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

A build is planned before any row exists. The plan is a list of segments,
one per rotation class: the least word of the class tiled to length n, and
the left rotations of it that are rows. A Lyndon word's class is taken
whole; a level's reserved word lists its coset blocks' rotations, block 0
first, in one segment. One `LevelPlan` per level records the counts.
`rec_*_with_plan`, the one construction call per degree class, checks the
witness on its plan, one segment at a time, as the paper proves it valid
(`_check_plan`): each word holds h '1's, n-h '0's and no other symbol, rows
are distinct because no two segments share a word and each segment's
rotations are distinct, and the column sums follow from each segment's word
and shifts. That takes O(#segments * n) string operations in C; no row or
edge is built for it.

Edges and rows are read off the checked plan each time they are asked for,
and neither is checked again: `edges` (for `realize` and `--format edges`),
and the '0'/'1' rows as `matrix` (stored through `BinaryMatrix._trusted`,
without the row check of the `BinaryMatrix` constructor) or `row_blocks`. A
reconstruction keeps neither, so it holds, pickles and copies as its plan.

Edges are emitted in runs. Across a range of shifts, the window of a word's
one-positions that makes up a row moves only when the shift passes the next
one-position; in between, each edge is the previous one moved down by one.
Rows are built three ways, chosen by the word's length n and the run's length
alone. A run of at least `_RUN` shifts is emitted as `zip` over one
descending range per vertex of its window, so the tuples are built in C.
Shorter runs, coset blocks and the span-one cut (whose shifts are lists),
and the empty rows of h = 0 are emitted row by row: for n <= 255 by
translating the window, packed one byte per vertex, through a table that
subtracts the shift, also in C; for longer words by one subtraction per
vertex.

The span-one build lifts the instance to the smallest strictly larger
homogeneous one whose total fits the divisibility constraints, plans that,
and cuts from the one segment whose word is the reserved 0^(n-h) 1^h (its
whole rotation class, or its coset blocks, block 0 first) the rows of its
first shifts by multiples of h. They lower every column alike but the last
n1, which drop one further, so the columns already descend by sum and are
never reordered.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from itertools import accumulate, chain, compress, repeat
from operator import not_

from .feasibility import RegularInstance, SpanOneInstance, _Record, check_regular, check_span_one
from .necklaces import common_divisors, count_lyndon, gen_lyndon
from .words import BinaryMatrix, _coset_block, _rotations, _row_blocks

__all__ = [
    "ConstructionInvariantError",
    "LevelPlan",
    "RegularReconstruction",
    "SpanOneReconstruction",
    "VerifyResult",
    "rec_regular_with_plan",
    "rec_span_one_with_plan",
    "twin_free_bipartite",
    "verify",
]

# A run of plan rows: a word tiled to the full row length n, and the left
# rotations of it that are rows, in row order.
_Segment = tuple[str, Sequence[int]]
_Edges = tuple[tuple[int, ...], ...]

# Shortest run of shifts that `_edges` emits through `zip`: below it, the
# per-row comprehension was faster in a microbenchmark over run lengths.
_RUN = 4

# Fewest columns per one at which `verify` reads rows by their ones: below
# it, the per-cell passes were faster in a sweep over n and h.
_SPARSE = 120

# _MINUS[j] maps each byte b to (b - j) mod 256: translating a row's window
# of one-positions, packed mod 256, through it subtracts the shift j.
_BYTES = bytes(range(256))
_MINUS = tuple(_BYTES[-j:] + _BYTES[:-j] for j in range(256))


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


class LevelPlan(_Record):
    """What one divisor level contributed to the output matrix: the reduced
    word length n/divisor and density h/divisor, the Lyndon words expanded
    to full rotation classes, and the coset blocks of the reserved word (0
    unless the level fills)."""

    _fields = ("divisor", "length", "density", "full_words", "partial_blocks")


class _RendersRows:
    """The edges and rows of a reconstruction, read from its checked plan on
    each use and kept nowhere: `edges`, `matrix`, or `row_blocks` a bounded
    block at a time."""

    @property
    def edges(self) -> _Edges:
        """Sorted 1-based one-positions of each row, in row order, read off
        the checked plan as `row_blocks` reads the rows: nothing is checked
        again (`_edges` says why)."""
        return _edges(self._segments)

    @property
    def matrix(self) -> BinaryMatrix:
        """The '0'/'1' rows of `row_blocks`, stored as they are: the plan they
        are read from is checked."""
        return BinaryMatrix._trusted(tuple(chain.from_iterable(self.row_blocks())), self.instance.n)

    def row_blocks(self) -> Iterator[tuple[str, ...]]:
        """The '0'/'1' rows of `matrix` in blocks of at most 2^16 symbols (one
        row at the least), each from one plan segment (a rotation class,
        whole or in part), without building or checking `matrix`: the
        construction has checked the plan these rows are read from."""
        n = self.instance.n
        return (
            _rotations(word, chunk)
            for word, shifts in self._segments
            for _, chunk in _row_blocks(shifts, n, 1 << 16)
        )


class RegularReconstruction(_RendersRows, _Record):
    """The checked plan of a homogeneous build: its instance, one `LevelPlan`
    per divisor level, and the plan segments, which equality and the repr
    leave out."""

    _fields = ("instance", "levels")
    __match_args__ = (*_fields, "_segments")

    def plan_json(self) -> dict:
        return {"levels": [level.to_json_dict() for level in self.levels]}


class SpanOneReconstruction(_RendersRows, _Record):
    """The checked plan of a span-one build: its instance, the row count and
    homogeneous column sum of the lifted instance, the rows deleted from it,
    the level plans of the lifted build, and the plan segments, which
    equality and the repr leave out."""

    _fields = ("instance", "lifted_rows", "lifted_degree", "rows_deleted", "levels")
    __match_args__ = (*_fields, "_segments")

    @property
    def lifted_ones(self) -> int:
        return self.lifted_rows * self.instance.h

    def plan_json(self) -> dict:
        return {
            "lifted_ones": self.lifted_ones,
            "lifted_rows": self.lifted_rows,
            "lifted_degree": self.lifted_degree,
            "rows_deleted": self.rows_deleted,
            "column_order": list(range(self.instance.n)),
            "levels": [level.to_json_dict() for level in self.levels],
        }


def rec_regular_with_plan(inst: RegularInstance) -> RegularReconstruction:
    """Construct m distinct edges of size h on vertices 1..n, each vertex in
    v of them. The instance must pass check_regular."""
    feas = check_regular(inst)
    if not feas.feasible:
        raise ValueError(f"infeasible homogeneous instance ({feas.violated})")
    segments, levels = _plan_regular(inst)
    _check_plan(segments, inst)
    return RegularReconstruction(inst, levels, segments)


def _plan_regular(inst: RegularInstance) -> tuple[list[_Segment], tuple[LevelPlan, ...]]:
    """Segments and level plans of the homogeneous build of a feasible
    instance, unchecked: every segment is a word built here, and the
    caller's `_check_plan` is the one check of the plan, its arithmetic
    included."""
    n, m, h, v = inst.n, inst.m, inst.h, inst.v
    if h in (0, n):
        # Feasibility caps m at 1 (for h = n by capacity, v <= 1): no row, or
        # the one row 0^(n-h) 1^h, all zeros or all ones, its own coset block
        # 0. For 1 <= h < n, m = 0 means v = 0: the level walk pulls no word.
        return [_coset_block(n, h, 0)][:m], ()

    segments: list[_Segment] = []
    levels: list[LevelPlan] = []
    remaining = v
    for d in common_divisors(n, h):
        if remaining == 0:
            break
        length, dens = n // d, h // d
        available = count_lyndon(length, dens)
        q = min(remaining // dens, available)
        fill_here = remaining - q * dens > 0 and q < available
        # A Lyndon word is aperiodic, so its d-fold tiling has `length`
        # distinct rotations: the rows of shift_matrix(word * d). The
        # reserved word is the least Lyndon word, so the first walked: a
        # level that fills walks it and drops it, one that does not starts
        # with its class.
        words = gen_lyndon(length, dens).first(q + fill_here)[fill_here:]
        if len(words) != q:
            raise ConstructionInvariantError("ran out of Lyndon words", inst, d)
        segments.extend([(word * d, range(length)) for word in words])
        remaining -= q * dens
        blocks = 0
        if fill_here:
            blocks = remaining * math.gcd(length, dens) // dens
            # block_submatrix(length, dens, j) for j < blocks, every row tiled
            # d times: one segment, the reserved word and the blocks' rotations.
            reserved, _ = _coset_block(length, dens, 0)
            shifts = [k for j in range(blocks) for k in _coset_block(length, dens, j)[1]]
            segments.append((reserved * d, shifts))
            remaining = 0
        levels.append(LevelPlan(d, length, dens, q, blocks))
    return segments, tuple(levels)


def rec_span_one_with_plan(inst: SpanOneInstance) -> SpanOneReconstruction:
    """Construct m distinct edges of size h on vertices 1..n, 1..n0 each in
    v of them and the last n1 in v-1, an order the construction yields
    without permuting columns. The instance must pass check_span_one."""
    feas = check_span_one(inst)
    if not feas.feasible:
        raise ValueError(f"infeasible span-one instance ({feas.violated})")
    lifted, segments, levels = _plan_span_one(inst)
    _check_plan(segments, inst)
    return SpanOneReconstruction(
        instance=inst,
        lifted_rows=lifted.m,
        lifted_degree=lifted.v,
        rows_deleted=lifted.m - inst.m,
        levels=levels,
        _segments=segments,
    )


# The construction call of each degree class. Callers index it in their own
# frame: a wrapper would add a frame above the recursive Lyndon walk.
_BUILDERS = {RegularInstance: rec_regular_with_plan, SpanOneInstance: rec_span_one_with_plan}


def _plan_span_one(
    inst: SpanOneInstance,
) -> tuple[RegularInstance, list[_Segment], tuple[LevelPlan, ...]]:
    """The lifted homogeneous instance, and the segments and level plans of
    its build with the surplus rows deleted, for a feasible instance."""
    n, h = inst.n, inst.h
    lifted = _lifted(inst)
    segments, levels = _plan_regular(lifted)
    deleted = lifted.m - inst.m

    # The base level, divisor 1, always runs, and 0^(n-h) 1^h is its least
    # Lyndon word: its first whole class, or, when the level fills, the
    # segment of its coset blocks, block 0 first, after the level's classes.
    # Its shifts j*h mod n for j < deleted, all in block 0, are cut: deleted
    # row j has its ones at [n-(j+1)h, n-jh) mod n, so the deleted rows cover
    # n*(lifted.v - v) + n1 cells running down from column n-1: only the last
    # n1 columns drop to v-1, and the columns need no reordering.
    reserved, block_shifts = _coset_block(n, h, 0)
    i = levels[0].full_words if levels[0].partial_blocks else 0
    doomed = set(block_shifts[:deleted])
    segments[i] = (reserved, [k for k in segments[i][1] if k not in doomed])
    return lifted, segments, levels


def _lifted(inst: SpanOneInstance) -> RegularInstance:
    """The homogeneous instance of the smallest total above h*m that lcm(n, h)
    divides. As h*m = n*v - n1 is no multiple of n, deleted = lifted.m - m <
    n/gcd(n, h). A feasible instance lifts to a feasible one: lcm(n, h)
    divides h*C(n, h) = n*C(n-1, h-1), which is at least n*v > h*m, so the
    lifted total is at most h*C(n, h)."""
    n, h = inst.n, inst.h
    step = n * h // math.gcd(n, h)
    lifted_ones = (inst.ones_total // step + 1) * step
    return RegularInstance(n=n, m=lifted_ones // h, h=h, v=lifted_ones // n)


def _check_plan(segments: list[_Segment], inst: RegularInstance | SpanOneInstance) -> None:
    """Check the witness a plan spells without building a row or an edge:
    m rows, each of n columns, h ones and n-h zeros, pairwise distinct, with
    the instance's degree vector as column sums, in column order.

    A word of n symbols with h '1's and n-h '0's holds no other symbol. A
    stray symbol is reported as an edge not of size h: `_edges` would read
    it as a one.

    Each segment is one rotation class, named by its least word: a Lyndon
    word tiled n/p times, p its period, as `gen_lyndon` yields them, or a
    reserved word (0^(p-e) 1^e)^(n/p), e = h*p/n. Two segments share rows
    only when their words are equal. A segment whose shifts are `range(p)`
    is a full class: p distinct rows adding e to every column. Any other
    segment (coset blocks, or the span-one cut) lists rotations of its
    period's reserved word, distinct and in [0, p), the range the renderers
    take (a shift outside it is reported as a vertex outside 1..n); the row
    at rotation s has its ones in columns [p-e-s, p-s) mod p, tiled. A plan
    this cannot show distinct is reported as parallel edges."""
    n, h = inst.n, inst.h
    words, shifts = tuple(zip(*segments)) or ((), ())
    rows = sum(map(len, shifts))
    if rows != inst.m:
        raise ConstructionInvariantError(f"built {rows} edges, expected {inst.m}", inst)
    if set(map(len, words)) - {n}:
        raise ConstructionInvariantError("built a vertex outside 1..n", inst)
    symbols = zip(map(str.count, words, repeat("0")), map(str.count, words, repeat("1")))
    if set(symbols) - {(n - h, h)}:
        raise ConstructionInvariantError(f"built an edge not of size {h}", inst)
    if len(set(words)) != len(words):
        raise ConstructionInvariantError("built parallel edges", inst)
    periods = list(map(str.find, map(str.__add__, words, words), words, repeat(1)))
    is_class = list(map(isinstance, shifts, repeat(range)))
    class_shifts = list(compress(shifts, is_class))
    class_periods = list(compress(periods, is_class))
    if class_shifts != list(map(range, class_periods)):
        # More rotations than the period repeat rows; fewer leave the columns uneven.
        more = next(len(s) > p for s, p in zip(class_shifts, class_periods) if s != range(p))
        raise ConstructionInvariantError(
            "built parallel edges" if more else "column sums missed the target vector", inst
        )
    sums = [h * sum(class_periods) // n] * n  # what the full classes add to every column
    for word, listed, period in compress(zip(words, shifts, periods), map(not_, is_class)):
        ones = h * period // n
        found = set(listed)
        if found.difference(range(period)):
            raise ConstructionInvariantError("built a vertex outside 1..n", inst)
        if len(found) != len(listed) or word != _coset_block(period, ones, 0)[0] * (n // period):
            raise ConstructionInvariantError("built parallel edges", inst)
        # Each row's ones are one run, starting at most p-1 columns in: a
        # difference array over 2p columns, folded back onto p.
        diff = [0] * (2 * period + 1)
        for s in found:
            start = (period - ones - s) % period
            diff[start] += 1
            diff[start + ones] -= 1
        runs = list(accumulate(diff))
        added = list(map(int.__add__, runs[:period], runs[period : 2 * period]))
        sums = list(map(int.__add__, sums, added * (n // period)))
    if tuple(sums) != inst.degree_vector():
        raise ConstructionInvariantError("column sums missed the target vector", inst)


def _edges(segments: list[_Segment]) -> _Edges:
    """Each row's sorted 1-based one-positions, in row order, without
    building the row: the row of shift k holds the ones at positions k+1 ..
    k+n of the doubled word, moved down by k. The window of shift k starts
    after the ones left of position k.

    On a plan `_check_plan` has passed, the edges need no check of their own:
    - one edge per shift, so m edges in all;
    - each edge is a window of h consecutive one-positions of a word with h
      ones, so it has h vertices, increasing;
    - every shift k lies in [0, p), p the word's period, so the window lies
      in k+1 .. k+n and every vertex in 1..n;
    - no two edges are equal, as no two rows of the plan are.

    A range of shifts is walked as runs over which that window stays put:
    it moves only at the next one-position. Lists of shifts (the coset
    blocks or span-one cut of a reserved word) and the empty word of h = 0
    are taken row by row.
    Rows are built three ways:
    - a run of at least `_RUN` rows by `zip` over one descending range per
      window vertex, which builds the tuples in C;
    - shorter runs and listed rows of a word of length n <= 255 by
      translating the window, packed one byte per vertex mod 256, through
      `_MINUS[k]`, also in C; the result is exact, as every vertex lies in
      1..n;
    - those rows of longer words by one subtraction per vertex."""
    edges: list[tuple[int, ...]] = []
    for word, shifts in segments:
        n = len(word)
        # The word's '0'/'1' bytes less ord("0") are its bits.
        ones = list(compress(range(1, n + 1), word.encode().translate(_MINUS[ord("0")])))
        doubled = ones + [p + n for p in ones]
        h = len(ones)
        packed = bytes([p & 255 for p in doubled]) if n < 256 else None
        if not (h and isinstance(shifts, range) and shifts.step == 1):
            starts = map(bisect_right, repeat(ones), shifts)
            if packed is None:
                edges.extend(
                    [tuple([p - k for p in doubled[s : s + h]]) for k, s in zip(shifts, starts)]
                )
            else:
                edges.extend(
                    [tuple(packed[s : s + h].translate(_MINUS[k])) for k, s in zip(shifts, starts)]
                )
            continue
        k, stop = shifts.start, shifts.stop
        s = word.count("1", 0, k)
        while k < stop:
            # The window moves on at the next one-position, doubled[s].
            end = doubled[s]
            if end > stop:
                end = stop
            if end - k >= _RUN:
                edges.extend(zip(*[range(x - k, x - end, -1) for x in doubled[s : s + h]]))
            elif packed is None:
                window = doubled[s : s + h]
                edges.extend([tuple([p - j for p in window]) for j in range(k, end)])
            else:
                edges.extend(map(tuple, map(packed[s : s + h].translate, _MINUS[k:end])))
            k = end
            s += 1
    return tuple(edges)


class VerifyResult(_Record):
    """Outcome of checking a matrix against an instance; `problem` names the
    first failing property."""

    _fields = ("ok", "problem")
    _required = 1

    def __bool__(self) -> bool:
        return self.ok


def verify(
    matrix: BinaryMatrix, instance: RegularInstance | SpanOneInstance | None
) -> VerifyResult:
    """True iff the matrix has the instance's shape, pairwise distinct rows,
    every row sum equal to h, and column sums matching the instance's degree
    vector as a multiset. Properties are checked in that order, and the first
    that fails is the `problem`. No instance (None, as `DegreeCheck` holds for
    a regular sequence with no integral row count) and an instance with no
    integral row count (`m` is None) fit no shape.

    Rows are read one of two ways. Rows of at least `_SPARSE` columns per one
    (n >= _SPARSE * h) are read by their ones (`_read_ones`), keyed by their
    one-columns, which name them exactly; once a row has other than h ones,
    by themselves. Denser rows are read by C-level passes over every cell:
    hashing, counting and column-slicing them."""
    if instance is None or matrix.ncols != instance.n or matrix.nrows != instance.m:
        return VerifyResult(False, "shape")
    rows, h = matrix.rows, instance.h
    read = _read_ones(rows, h, matrix.ncols) if matrix.ncols >= _SPARSE * h else None
    keys = read[0] if read else rows
    if len(set(keys)) != len(keys):
        return VerifyResult(False, "duplicate rows")
    if read is None and set(map(str.count, rows, repeat("1"))) - {h}:
        return VerifyResult(False, "row sum")
    sums = read[1] if read else matrix.col_sums()
    if tuple(sorted(sums, reverse=True)) != instance.degree_vector():
        return VerifyResult(False, "column sum")
    return VerifyResult(True)


def _read_ones(
    rows: tuple[str, ...], h: int, n: int
) -> tuple[list[tuple[int, ...]], list[int]] | None:
    """Each row's one-columns and the n column sums, from `str.find` walking
    each row up to its (h+1)-th one; None once a row has other than h ones."""
    keys = []
    sums = [0] * n
    for row in rows:
        ones = []
        p = row.find("1")
        while p >= 0 and len(ones) <= h:
            ones.append(p)
            p = row.find("1", p + 1)
        if len(ones) != h:
            return None
        for p in ones:
            sums[p] += 1
        keys.append(tuple(ones))
    return keys, sums


def twin_free_bipartite(n: int, k: int) -> BinaryMatrix:
    """Biadjacency matrix of a k-regular bipartite graph on n + n vertices
    with no twins: symmetric, distinct rows, distinct columns."""
    return _bipartite(n, k).matrix


def _bipartite(n: int, k: int) -> RegularReconstruction:
    """The checked construction whose rows are twin_free_bipartite(n, k)."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got n={n}, k={k}")
    return rec_regular_with_plan(RegularInstance(n=n, m=n, h=k, v=k))
