import itertools
import math
import operator
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperdeg.feasibility import (
    DegreeCheck,
    Feasibility,
    RegularInstance,
    SpanOneInstance,
    check_degree_sequence,
    check_regular,
    check_span_one,
    classify_degrees,
    conjugate,
    erdos_gallai_check,
    gale_ryser_check,
)
from hyperdeg.hypergraphs import realize
from hyperdeg.necklaces import binomial
from hyperdeg.oracle import exists_any_matrix, exists_distinct_rows


class TestInstances:
    def test_regular_validation(self):
        with pytest.raises(ValueError):
            RegularInstance(0, 1, 1, 1)
        with pytest.raises(ValueError):
            RegularInstance(3, -1, 1, 1)

    def test_span_one_validation(self):
        with pytest.raises(ValueError):
            SpanOneInstance(4, 2, 3, 4, 0)
        with pytest.raises(ValueError):
            SpanOneInstance(4, 2, 3, 1, 2)
        with pytest.raises(ValueError):
            SpanOneInstance(4, 2, 0, 2, 2)
        with pytest.raises(ValueError):
            SpanOneInstance(4, 0, 3, 2, 2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RegularInstance(4, 5.0, 2, 2.5),
            lambda: RegularInstance(4, 4, 2.0, 2),
            lambda: RegularInstance("4", 4, 2, 2),
            lambda: SpanOneInstance(9, 3, 5.0, 3, 6),
            lambda: SpanOneInstance(9, 3, 5, 3.5, 5.5),
        ],
        ids=[
            "regular-float-v",
            "regular-float-h",
            "regular-str-n",
            "span-one-float-v",
            "span-one-float-n0",
        ],
    )
    def test_refuses_fields_that_are_no_integers(self, build):
        with pytest.raises(ValueError, match="instance fields must be integers"):
            build()

    def test_span_one_derived_row_count(self):
        assert SpanOneInstance(9, 3, 5, 3, 6).m == 13
        assert SpanOneInstance(4, 2, 3, 3, 1).m is None
        # Every instance with n <= 12, h <= n + 1 and v <= 7: m is None
        # exactly when h does not divide the ones, and counts their rows
        # otherwise.
        for n in range(2, 13):
            for h, v, n0 in itertools.product(range(1, n + 2), range(1, 8), range(1, n)):
                inst = SpanOneInstance(n, h, v, n0, n - n0)
                if inst.ones_total % h:
                    assert inst.m is None, inst
                else:
                    assert inst.m * h == inst.ones_total, inst


class TestCheckRegular:
    def test_documented_cases(self):
        assert check_regular(RegularInstance(6, 15, 2, 5)) == Feasibility(True, None, 15)
        assert check_regular(RegularInstance(6, 18, 2, 6)) == Feasibility(False, "cond3", 18)
        assert check_regular(RegularInstance(4, 1, 4, 1)).feasible

    def test_violation_order_bounds_before_totals(self):
        # h > n and mismatched totals: bounds reported first
        assert check_regular(RegularInstance(3, 2, 5, 1)).violated == "cond2"
        assert check_regular(RegularInstance(3, 2, 2, 3)).violated == "cond2"
        # totals break before capacity
        assert check_regular(RegularInstance(4, 3, 2, 2)).violated == "cond1"

    def test_zero_row_sum_rules(self):
        assert check_regular(RegularInstance(4, 0, 0, 0)).feasible
        assert check_regular(RegularInstance(4, 1, 0, 0)).feasible
        assert check_regular(RegularInstance(4, 2, 0, 0)) == Feasibility(False, "cond3", 2)

    def test_capacity_is_monotone_in_v(self):
        for n in range(1, 9):
            for h in range(1, n + 1):
                feasible_v = [
                    v
                    for v in range(0, h * binomial(n, h) // n + 3)
                    if (n * v) % h == 0
                    and check_regular(RegularInstance(n, n * v // h, h, v)).feasible
                ]
                assert feasible_v == sorted(feasible_v)
                if feasible_v:
                    top = feasible_v[-1]
                    covered = [v for v in range(top + 1) if (n * v) % h == 0]
                    assert feasible_v == covered


class TestCheckSpanOne:
    def test_documented_cases(self):
        assert check_span_one(SpanOneInstance(9, 3, 5, 3, 6)) == Feasibility(True, None, 13)
        assert check_span_one(SpanOneInstance(4, 2, 3, 3, 1)) == Feasibility(
            False, "integrality", None
        )
        assert check_span_one(SpanOneInstance(6, 3, 2, 3, 3)) == Feasibility(True, None, 3)

    def test_bounds_and_capacity(self):
        assert check_span_one(SpanOneInstance(3, 5, 2, 2, 1)).violated == "cond2"
        # n=4, h=2: capacity v*n <= h*C(4,2) = 12 fails at v = 4 (m = 7)
        assert check_span_one(SpanOneInstance(4, 2, 4, 2, 2)).violated == "cond3"


class TestConjugate:
    def test_documented_cases(self):
        assert conjugate((5, 5, 5, 4, 4, 4, 4, 4, 4)) == (9, 9, 9, 9, 3)
        assert conjugate((2, 1)) == (2, 1)
        assert conjugate((0, 0)) == ()

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=9))
    def test_involution_on_positive_parts(self, values):
        once = conjugate(values)
        assert sum(once) == sum(values)
        assert sorted(conjugate(once), reverse=True) == sorted(values, reverse=True)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            conjugate((1, -1))


class TestGaleRyser:
    def test_documented_cases(self):
        assert gale_ryser_check((2, 2), (1, 1, 1, 1))
        assert not gale_ryser_check((2, 2, 0), (3, 1))
        assert gale_ryser_check((2, 1), (2, 1))

    def test_sorts_row_sums_internally(self):
        assert gale_ryser_check((0, 2, 2), (3, 1)) == gale_ryser_check((2, 2, 0), (3, 1))
        assert gale_ryser_check((1, 2), (2, 1)) == gale_ryser_check((2, 1), (2, 1))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
    )
    def test_agrees_with_exhaustive_search(self, H, V):
        assert gale_ryser_check(H, V) == exists_any_matrix(H, V)


class TestErdosGallai:
    def test_documented_cases(self):
        assert erdos_gallai_check((3, 3, 3, 3))
        assert not erdos_gallai_check((3, 1))
        assert erdos_gallai_check((2, 2, 2))

    def test_against_graph_enumeration(self):
        # all graphic sequences on up to 5 vertices, by enumerating graphs
        from itertools import combinations, combinations_with_replacement

        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            graphic = set()
            for mask in range(1 << len(pairs)):
                deg = [0] * n
                for b, (u, v) in enumerate(pairs):
                    if mask >> b & 1:
                        deg[u] += 1
                        deg[v] += 1
                graphic.add(tuple(sorted(deg, reverse=True)))
            for seq in combinations_with_replacement(range(n - 1, -1, -1), n):
                assert erdos_gallai_check(seq) == (seq in graphic), seq

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=40))
    def test_matches_quadratic_definition(self, degrees):
        d = sorted(degrees, reverse=True)
        expected = sum(d) % 2 == 0 and all(
            sum(d[:k]) <= k * (k - 1) + sum(min(k, x) for x in d[k:])
            for k in range(1, len(d) + 1)
        )
        assert erdos_gallai_check(degrees) == expected


class TestClassification:
    def test_kinds(self):
        assert classify_degrees((5, 5, 5)) == "regular"
        assert classify_degrees((5, 5, 4)) == "span-one"
        assert classify_degrees((4, 2, 2)) == "unsupported"
        assert classify_degrees((0, 0)) == "regular"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            classify_degrees(())
        with pytest.raises(ValueError):
            classify_degrees((1, -1))

    def test_check_degree_sequence_paths(self):
        regular = check_degree_sequence((5,) * 6, 2)
        assert regular.kind == "regular"
        assert regular.instance == RegularInstance(6, 15, 2, 5)
        assert regular.result.feasible

        span = check_degree_sequence((5, 5, 5, 4, 4, 4, 4, 4, 4), 3)
        assert span.kind == "span-one"
        assert span.instance == SpanOneInstance(9, 3, 5, 3, 6)
        assert span.result == Feasibility(True, None, 13)

        assert check_degree_sequence((4, 2, 2), 2).kind == "unsupported"

        no_m = check_degree_sequence((1, 1, 1), 2)
        assert no_m.instance is None
        assert no_m.result == Feasibility(False, "integrality", None)

    def test_float_degrees_are_refused_not_decided(self):
        # 2.5 * 4 = 5 * 2: the totals balance, but no hypergraph has a
        # vertex of degree 2.5.
        with pytest.raises(ValueError, match="^degrees must be integers, got 2.5$"):
            check_degree_sequence((2.5,) * 4, 2)
        with pytest.raises(ValueError, match="^edge size must be an integer, got 3.0$"):
            check_degree_sequence((5, 5, 5, 4, 4, 4, 4, 4, 4), 3.0)


class _RefusesIndex:
    """Has `__index__`, which refuses the value as `float.__index__` would."""

    def __index__(self):
        raise TypeError("not an integer")

    def __repr__(self):
        return "_RefusesIndex()"


class TestIntegerGate:
    """One integer check guards the decision and the construction alike:
    `check_degree_sequence`, and `realize` through it, refuses an edge size
    or any degree that is no integer, wherever it stands, and names the
    value (a string here is the expected message)."""

    @pytest.mark.parametrize(
        "call, degrees, h, refusal",
        [
            (check_degree_sequence, (2, 2), 2.5, "got 2.5$"),
            (check_degree_sequence, (2.5, 2.5, 2.5), 2, "got 2.5$"),
            (check_degree_sequence, (2, 2.5), 2, "got 2.5$"),
            (check_degree_sequence, (3, 2.5), 2, "^degrees must be integers, got 2.5$"),
            (check_degree_sequence, (2.5,) * 4, 2, "got 2.5$"),
            (check_degree_sequence, (5, 5, 5, 4, 4, 4, 4, 4, 4), 3.0, "got 3.0$"),
            (check_degree_sequence, (2, 2, 2.0, 2), 2, "^degrees must be integers, got 2.0$"),
            (realize, (2, 2, 2.0, 2), 2, "^degrees must be integers, got 2.0$"),
            (realize, (2, 2), 2.5, "^edge size must be an integer, got 2.5$"),
            (check_degree_sequence, (_RefusesIndex(),), 2, r"got _RefusesIndex\(\)$"),
            (realize, (_RefusesIndex(),), 2, r"^degrees must be integers, got _RefusesIndex\(\)$"),
        ],
        ids=[
            "float-edge-size",
            "float-regular",
            "float-largest",
            "float-spread",
            "float-totals-balance",
            "whole-float-edge-size",
            "whole-float-degree-refused",
            "realize-whole-float-degree",
            "realize-float-edge-size",
            "index-raises-type-error",
            "realize-index-raises-type-error",
        ],
    )
    def test_refuses_what_no_integer_sequence_has(self, call, degrees, h, refusal):
        with pytest.raises(ValueError, match=refusal):
            call(degrees, h)


def _min_max_check(degrees, h):
    """The reference gate: the class of a degree list by its spread, max -
    min, and n0 by counting the largest value; the text of the ValueError
    for a list that is empty, holds a degree that is no integer (the first
    one is named) or a negative degree."""
    degrees = tuple(degrees)
    if not degrees:
        return "degree sequence must be nonempty"
    for degree in degrees:
        try:
            operator.index(degree)
        except TypeError:
            return f"degrees must be integers, got {degree!r}"
    n, low, v = len(degrees), min(degrees), max(degrees)
    if low < 0:
        return "degrees must be nonnegative"
    if v - low > 1:
        return DegreeCheck("unsupported", None, None)
    if v == low:
        if (n * v) % h:
            return DegreeCheck("regular", None, Feasibility(False, "integrality", None))
        instance = RegularInstance(n, n * v // h, h, v)
        return DegreeCheck("regular", instance, check_regular(instance))
    n0 = degrees.count(v)
    instance = SpanOneInstance(n, h, v, n0, n - n0)
    return DegreeCheck("span-one", instance, check_span_one(instance))


def _outcome(call, *args):
    """What `call(*args)` returns, or the text of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


_DEGREE_LISTS = st.lists(st.integers(0, 6), min_size=1, max_size=12)
# A degree list together with one reordering of it.
_REORDERED = _DEGREE_LISTS.flatmap(lambda d: st.tuples(st.just(d), st.permutations(d)))


class TestOneDegreeGate:
    """Every degree passes one check, wherever it stands in the list."""

    @settings(max_examples=400, deadline=None)
    @given(_REORDERED, st.integers(1, 8))
    def test_every_ordering_gets_the_reference_verdict(self, lists, h):
        degrees, reordered = lists
        check = check_degree_sequence(degrees, h)
        assert check == check_degree_sequence(tuple(reordered), h)
        assert check == check_degree_sequence(sorted(degrees), h)
        assert check == _min_max_check(degrees, h)

    @settings(max_examples=600, deadline=None)
    @given(
        st.one_of(st.integers(-3, 6), st.integers(2**64 - 3, 2**64 + 3)),
        st.lists(st.integers(-2, 2), min_size=1, max_size=12),
        st.booleans(),
        st.one_of(st.none(), st.tuples(st.sampled_from([2.0, True, "3"]), st.integers(0, 11))),
        st.integers(1, 8),
    )
    @example(4, [0, 1, 1], False, None, 3)
    @example(0, [0, -1, 0], False, None, 2)
    @example(-1, [0, 1], False, None, 2)
    @example(2**64, [0, 2, 1], True, None, 2)
    @example(1, [0, 0, 1], False, (True, 1), 2)
    @example(2, [0, 1], False, (2.0, 1), 2)
    def test_counting_gives_the_min_max_class(self, base, offsets, smallest_first, bad, h):
        # Lists over {a, a±1, a±2} in any order, the least value moved first or
        # not, and possibly one degree set to 2.0, True or "3": the class, the
        # instance (n0, n1) and the verdict, or the error text, are those of
        # the min/max rule.
        degrees = [base + offset for offset in offsets]
        if smallest_first:
            least = degrees.index(min(degrees))
            degrees[0], degrees[least] = degrees[least], degrees[0]
        if bad is not None:
            value, position = bad
            degrees[position % len(degrees)] = value
        expected = _min_max_check(degrees, h)
        assert _outcome(check_degree_sequence, degrees, h) == expected
        kind = expected if isinstance(expected, str) else expected.kind
        assert _outcome(classify_degrees, degrees) == kind

    @settings(max_examples=400, deadline=None)
    @given(
        _DEGREE_LISTS,
        st.integers(1, 8),
        st.sampled_from([2.5, 2.0, 3.0, "3", _RefusesIndex()]),
        st.integers(0, 11),
        st.sampled_from([check_degree_sequence, realize]),
    )
    @example([3, 3, 2], 2, 2.5, 1, check_degree_sequence)
    @example([2, 2, 2, 2], 2, 2.0, 0, check_degree_sequence)
    @example([2, 2, 2, 2], 2, 2.0, 3, check_degree_sequence)
    @example([3, 3, 2], 2, 3.0, 1, check_degree_sequence)
    def test_a_degree_that_is_no_integer_is_named(self, degrees, h, bad, position, call):
        degrees = list(degrees)
        degrees[position % len(degrees)] = bad
        refusal = f"^degrees must be integers, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=refusal):
            call(degrees, h)

    @pytest.mark.parametrize(
        "degrees",
        [(3,) * 400_000, (2,) * 200_000 + (1,) * 200_000],
        ids=["regular", "span-one"],
    )
    def test_checks_a_long_tuple_without_copying_it(self, degrees):
        # A copy of the tuple, such as tuple(map(index, degrees)), takes 3.2 MB.
        check_degree_sequence((3, 3), 2)  # what a first call sets up is not counted
        tracemalloc.start()
        try:
            check = check_degree_sequence(degrees, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert check.result.feasible
        assert peak < 64 * 1024


class TestCharacterizationAgainstOracle:
    def test_regular_small(self):
        # h = n + 1 only admits the empty matrix (m = v = 0), which exists.
        for n in range(1, 6):
            for h in range(1, n + 2):
                cap = h * binomial(n, h) // n
                for v in range(cap + 2):
                    if (n * v) % h:
                        continue
                    inst = RegularInstance(n, n * v // h, h, v)
                    assert (
                        check_regular(inst).feasible
                        == exists_distinct_rows(n, h, (v,) * n).exists
                    ), inst

    def test_span_one_small(self):
        for n in range(2, 6):
            for h in range(1, n + 1):
                cap = h * binomial(n, h) // n
                for v in range(1, cap + 2):
                    for n0 in range(1, n):
                        inst = SpanOneInstance(n, h, v, n0, n - n0)
                        verdict = check_span_one(inst)
                        vector = inst.degree_vector()
                        if sum(vector) % h:
                            assert verdict.violated == "integrality"
                        assert verdict.feasible == exists_distinct_rows(n, h, vector).exists, inst


def _product_form_regular(inst):
    """check_regular with capacity in its product form, v*n <= h*C(n, h),
    which caps nothing when h = 0, so the row count is capped there."""
    n, m, h, v = inst.n, inst.m, inst.h, inst.v
    if (h > n and m > 0) or v > m:
        return Feasibility(False, "cond2", m)
    if m * h != n * v:
        return Feasibility(False, "cond1", m)
    if v * n > h * math.comb(n, h) or (h == 0 and m > 1):
        return Feasibility(False, "cond3", m)
    return Feasibility(True, None, m)


def _product_form_span_one(inst):
    """check_span_one with capacity in its product form."""
    n, h, v = inst.n, inst.h, inst.v
    if (n * v - inst.n1) % h:
        return Feasibility(False, "integrality", None)
    m = (n * v - inst.n1) // h
    if h > n or v > m:
        return Feasibility(False, "cond2", m)
    if v * n > h * math.comb(n, h):
        return Feasibility(False, "cond3", m)
    return Feasibility(True, None, m)


class TestCapacityAsARowCount:
    """Capacity as m <= C(n, h) gives the verdicts of its product form,
    v*n <= h*C(n, h) with m <= 1 for h = 0: for a regular instance the two
    differ by the factor h, and for a span-one instance no row count falls
    between them, since n divides neither n*v - n1 nor any value within n1
    below h*C(n, h) = n*C(n-1, h-1)."""

    def test_every_small_regular_instance(self):
        checked = 0
        for n in range(1, 31):
            for h in range(n + 3):
                for m in range(min(math.comb(n, h) + 2, 61) + 1):
                    for v in range(m + 2):
                        inst = RegularInstance(n, m, h, v)
                        assert check_regular(inst) == _product_form_regular(inst), inst
                        checked += 1
        assert checked == 752_363

    def test_every_small_span_one_instance(self):
        checked = 0
        for n in range(2, 31):
            for h in range(1, n + 4):
                for v in range(1, min(math.comb(n - 1, h - 1) + 3, 80)):
                    for n0 in range(1, n):
                        inst = SpanOneInstance(n, h, v, n0, n - n0)
                        assert check_span_one(inst) == _product_form_span_one(inst), inst
                        checked += 1
        assert checked == 590_408

    @pytest.mark.parametrize("n", [1000, 10_000])
    @pytest.mark.parametrize("h", [2, 3, 7, "n/2"])
    @pytest.mark.parametrize("n1", [0, 1, "n-1"], ids=["regular", "n1=1", "n1=n-1"])
    def test_at_the_capacity_edge_for_large_n(self, n, h, n1):
        # v = C(n-1, h-1) is the largest degree capacity allows a regular
        # instance, with m = C(n, h). A span-one instance has an integral row
        # count only when gcd(n, h) divides n1, every h/gcd(n, h)-th v; the
        # last such v up to the edge is feasible and the next is refused by
        # capacity alone.
        h = n // 2 if h == "n/2" else h
        n1 = n - 1 if n1 == "n-1" else n1
        edge = math.comb(n - 1, h - 1)

        def verdicts(v):
            if n1:
                inst = SpanOneInstance(n, h, v, n - n1, n1)
                return check_span_one(inst), _product_form_span_one(inst)
            inst = RegularInstance(n, n * v // h, h, v)
            return check_regular(inst), _product_form_regular(inst)

        admissible = [v for v in range(edge - h, edge + h + 1) if (n * v - n1) % h == 0]
        below = [v for v in admissible if v <= edge][-1:]
        above = [v for v in admissible if v > edge][:1]
        for v in {edge, edge + 1, *below, *above}:
            verdict, reference = verdicts(v)
            assert verdict == reference, (n, h, n1, v)
        assert bool(admissible) == (n1 % math.gcd(n, h) == 0)
        if admissible:
            assert verdicts(*below)[0].feasible
            assert verdicts(*above)[0].violated == "cond3"
