"""Feasibility tests for distinct-row binary matrices with prescribed
projections, plus the classical Gale-Ryser and Erdos-Gallai checks.

A regular instance asks for m distinct rows of sum h whose n columns all sum
to v; a span-one instance allows the column sums to take the two adjacent
values v and v-1. Both are decided by one verdict over three exact integer
conditions: bounds (h <= n unless m = 0, and v <= m), the counting identity
m*h = total ones, and the capacity m <= C(n,h), the number of distinct rows
of h ones.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from itertools import accumulate
from math import comb
from operator import index

__all__ = [
    "DegreeCheck",
    "Feasibility",
    "RegularInstance",
    "SpanOneInstance",
    "check_degree_sequence",
    "check_regular",
    "check_span_one",
    "classify_degrees",
    "conjugate",
    "erdos_gallai_check",
    "gale_ryser_check",
]


def _integers(values: Sequence, rule: str) -> None:
    """Refuse any value that `operator.index` refuses, such as 2.5, 2.0 or
    "3", with a ValueError that states `rule` and names the first such value:
    the one integer check of degrees, edge sizes, instance fields, vertex and
    column counts, vertices, and word lengths and densities. The
    pass over the values runs in C and keeps nothing; only a refusal walks
    them one by one, to name the value."""
    try:
        deque(map(index, values), 0)
    except TypeError:
        for value in values:
            try:
                index(value)
            except TypeError:
                raise ValueError(f"{rule}, got {value!r}") from None
        raise


class _Record:
    """Base of the immutable record types. The class names its fields, in
    order, in its tuple `_fields`, which drives value equality (same class,
    equal fields), hashing, the repr, `__match_args__` and `to_json_dict`
    (each field by name, nested records as they are). One constructor binds
    positional and keyword arguments to `__match_args__` (the fields, unless
    a class lists more), requires the first `_required` of them (all, unless
    a class says fewer) and fills the rest with None; a missing, surplus,
    unknown or repeated argument raises TypeError. A record that checks its
    arguments does so in its own `__init__` and then stores them through
    this one, the only code that writes a record's fields. No attribute can
    be assigned or deleted."""

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__dict__.get("__match_args__", cls._fields)
        cls._required = cls.__dict__.get("_required", len(cls.__match_args__))

    def __init__(self, *values: object, **named: object) -> None:
        names = self.__match_args__
        if named or len(values) != len(names):
            kind = type(self).__qualname__
            if len(values) > len(names):
                raise TypeError(f"{kind}() takes at most {len(names)} arguments, got {len(values)}")
            for name in names[len(values) : self._required]:
                if name not in named:
                    raise TypeError(f"{kind}() missing argument {name!r}")
            values += tuple([named.pop(name, None) for name in names[len(values) :]])
            if named:
                name = next(iter(named))
                problem = "multiple values for" if name in names else "an unexpected keyword"
                raise TypeError(f"{kind}() got {problem} argument {name!r}")
        self.__dict__.update(zip(names, values))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def to_json_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.to_json_dict().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class RegularInstance(_Record):
    """Homogeneous projections: m rows of sum h over n columns of sum v."""

    _fields = ("n", "m", "h", "v")

    def __init__(self, n: int, m: int, h: int, v: int) -> None:
        _integers((n, m, h, v), "instance fields must be integers")
        if n < 1:
            raise ValueError("column count must be positive")
        if min(m, h, v) < 0:
            raise ValueError("projections must be nonnegative")
        super().__init__(n, m, h, v)

    def degree_vector(self) -> tuple[int, ...]:
        return (self.v,) * self.n


class SpanOneInstance(_Record):
    """Homogeneous row sums h; column sums take the value v on n0 columns and
    v-1 on the remaining n1 columns."""

    _fields = ("n", "h", "v", "n0", "n1")

    def __init__(self, n: int, h: int, v: int, n0: int, n1: int) -> None:
        _integers((n, h, v, n0, n1), "instance fields must be integers")
        if n0 < 1 or n1 < 1:
            raise ValueError("both column-sum values must occur")
        if n0 + n1 != n:
            raise ValueError("n0 + n1 must equal n")
        if v < 1:
            raise ValueError("larger column sum must be positive")
        if h < 1:
            raise ValueError("row sum must be positive")
        super().__init__(n, h, v, n0, n1)

    @property
    def ones_total(self) -> int:
        return self.n * self.v - self.n1

    @property
    def m(self) -> int | None:
        """The row count, ones_total / h; None when h does not divide
        ones_total, so that no integral row count exists."""
        m, rest = divmod(self.ones_total, self.h)
        return None if rest else m

    def degree_vector(self) -> tuple[int, ...]:
        return (self.v,) * self.n0 + (self.v - 1,) * self.n1


class Feasibility(_Record):
    """Verdict of a feasibility check; `violated` names the first failing
    condition (cond1 = totals, cond2 = bounds, cond3 = capacity,
    integrality = no integral row count exists)."""

    _fields = ("feasible", "violated", "m")
    _required = 1


def _verdict(n: int, m: int, h: int, v: int, ones: int) -> Feasibility:
    """The verdict on m distinct rows of h ones over n columns, the largest
    column sum v and `ones` ones in all, reporting the first violation in
    the fixed order bounds, totals, capacity."""
    if (h > n and m > 0) or v > m:
        return Feasibility(False, "cond2", m)
    if m * h != ones:
        return Feasibility(False, "cond1", m)
    if m > comb(n, h):
        return Feasibility(False, "cond3", m)
    return Feasibility(True, None, m)


def check_regular(inst: RegularInstance) -> Feasibility:
    """Decide whether a distinct-row matrix with homogeneous projections
    exists."""
    return _verdict(inst.n, inst.m, inst.h, inst.v, inst.n * inst.v)


def check_span_one(inst: SpanOneInstance) -> Feasibility:
    """Decide whether a distinct-row matrix with span-one column sums exists.
    An instance with no integral row count (`inst.m` is None) is reported as
    `integrality`."""
    m = inst.m
    if m is None:
        return Feasibility(False, "integrality", None)
    return _verdict(inst.n, m, inst.h, inst.v, inst.ones_total)


def conjugate(values: Sequence[int]) -> tuple[int, ...]:
    """Ferrers conjugate: entry i (1-based) counts the input values >= i.
    Empty when every value is zero."""
    if any(x < 0 for x in values):
        raise ValueError("conjugate needs nonnegative entries")
    top = max(values, default=0)
    return tuple(sum(x >= i for x in values) for i in range(1, top + 1))


def gale_ryser_check(row_sums: Sequence[int], col_sums: Sequence[int]) -> bool:
    """Existence of some binary matrix (rows may repeat) with the given
    projections: equal totals plus the dominance inequalities, where partial
    sums of the conjugate of col_sums dominate those of row_sums sorted
    nonincreasingly."""
    if any(x < 0 for x in row_sums) or any(x < 0 for x in col_sums):
        raise ValueError("projections must be nonnegative")
    if sum(row_sums) != sum(col_sums):
        return False
    bars = conjugate(col_sums)
    lhs = 0
    rhs = 0
    for i, h_i in enumerate(sorted(row_sums, reverse=True)):
        lhs += bars[i] if i < len(bars) else 0
        rhs += h_i
        if lhs < rhs:
            return False
    return True


def erdos_gallai_check(degrees: Sequence[int]) -> bool:
    """True iff the sequence is realizable by a simple loopless graph."""
    if any(x < 0 for x in degrees):
        raise ValueError("degrees must be nonnegative")
    d = sorted(degrees, reverse=True)
    prefix = [0, *accumulate(d)]
    if prefix[-1] % 2:
        return False
    # d[:p] holds the degrees >= k, so sum(min(k, d_i) for i > k) is O(1).
    p = len(d)
    for k in range(1, len(d) + 1):
        while p and d[p - 1] < k:
            p -= 1
        c = max(k, p)
        if prefix[k] > k * (c - 1) + prefix[-1] - prefix[c]:
            return False
    return True


def _degree_gate(degrees: Sequence[int]) -> tuple[tuple, int, int, str]:
    """The degrees as a tuple, their largest value v, the number n0 of
    degrees equal to v (in a regular or span-one list) and their class,
    after the one check every degree list passes: it must be nonempty, and
    every degree a nonnegative integer. A ValueError names the first degree
    that is no integer.

    The class is found by counting. The list is regular when the first
    degree fills it. Otherwise the first degree's neighbour below, then the
    one above, is counted; when either fills the list with the first degree,
    the list is span-one. Only a wider list is read by min and max, for the
    nonnegative check and its largest value."""
    degrees = tuple(degrees)
    if not degrees:
        raise ValueError("degree sequence must be nonempty")
    _integers(degrees, "degrees must be integers")
    n, first = len(degrees), degrees[0]
    n0 = degrees.count(first)
    if n0 == n:
        kind, v, low = "regular", first, first
    elif n0 + degrees.count(first - 1) == n:
        kind, v, low = "span-one", first, first - 1
    elif n0 + (above := degrees.count(first + 1)) == n:
        kind, v, low, n0 = "span-one", first + 1, first, above
    else:
        kind, v, low = "unsupported", max(degrees), min(degrees)
    if low < 0:
        raise ValueError("degrees must be nonnegative")
    return degrees, v, n0, kind


def classify_degrees(degrees: Sequence[int]) -> str:
    """Classify a degree vector as 'regular' (one value), 'span-one' (two
    adjacent values) or 'unsupported' (anything wider), by counting the
    first degree and its two neighbours. An empty vector, a negative degree
    or a degree that is no integer, such as 2.5 or 2.0, raises ValueError."""
    return _degree_gate(degrees)[3]


class DegreeCheck(_Record):
    """Classification of a degree vector together with the matching
    feasibility verdict. Instance and result are None when unsupported.
    Instance alone is None for a regular sequence with no integral row count;
    a span-one sequence keeps its `SpanOneInstance` even then (its `m` is
    None), with the verdict `integrality`."""

    _fields = ("kind", "instance", "result")


def check_degree_sequence(degrees: Sequence[int], h: int) -> DegreeCheck:
    """Classify `degrees` and run the matching feasibility check for edge
    size h. The degrees may come in any order. An edge size that is no
    positive integer raises ValueError, and so does any degree list that
    `classify_degrees` refuses: each degree is checked, wherever it stands."""
    _integers((h,), "edge size must be an integer")
    if h < 1:
        raise ValueError("edge size must be positive")
    degrees, v, n0, kind = _degree_gate(degrees)
    n = len(degrees)
    if kind == "unsupported":
        return DegreeCheck(kind, None, None)
    if kind == "regular":
        if (n * v) % h:
            return DegreeCheck(kind, None, Feasibility(False, "integrality", None))
        inst = RegularInstance(n=n, m=n * v // h, h=h, v=v)
        return DegreeCheck(kind, inst, check_regular(inst))
    span_inst = SpanOneInstance(n=n, h=h, v=v, n0=n0, n1=n - n0)
    return DegreeCheck(kind, span_inst, check_span_one(span_inst))
