"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts. All combinatorial assertions are exact;
the timed sweeps assert their stated wall-clock budgets.
"""

import math
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement, islice, permutations

from hyperdeg.feasibility import (
    RegularInstance,
    SpanOneInstance,
    check_regular,
    check_span_one,
    gale_ryser_check,
)
from hyperdeg.necklaces import (
    binomial,
    common_divisors,
    count_lyndon,
    count_necklaces,
    gen_lyndon,
    gen_necklaces,
)
from hyperdeg.oracle import exists_any_matrix, exists_distinct_rows
from hyperdeg.reconstruct import (
    rec_regular_with_plan,
    rec_span_one_with_plan,
    twin_free_bipartite,
    verify,
)
from hyperdeg.words import cyclic_shift


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_01_counting_goldens():
    with criterion(1, "counting and generation goldens"):
        start = time.time()
        assert count_necklaces(4, 2) == 2
        assert count_lyndon(4, 2) == 1
        assert count_lyndon(6, 2) == 2
        assert sum(count_necklaces(4, d) for d in range(5)) == 6
        assert list(gen_necklaces(4, 2)) == ["0011", "0101"]
        assert list(gen_lyndon(4, 2)) == ["0011"]
        assert list(gen_lyndon(6, 2)) == ["000011", "000101"]
        assert list(gen_lyndon(3, 1)) == ["001"]
        assert sorted(w for d in range(5) for w in gen_necklaces(4, d)) == [
            "0000",
            "0001",
            "0011",
            "0101",
            "0111",
            "1111",
        ]
        assert time.time() - start < 1.0


def test_criterion_02_class_partition_identity():
    with criterion(2, "class-partition identity for n <= 16"):
        start = time.time()
        for n in range(1, 17):
            for h in range(1, n + 1):
                total = sum(
                    (n // d) * count_lyndon(n // d, h // d)
                    for d in common_divisors(n, h)
                )
                assert total == binomial(n, h), (n, h)
        assert binomial(12, 6) == 924
        assert (
            12 * count_lyndon(12, 6)
            + 6 * count_lyndon(6, 3)
            + 4 * count_lyndon(4, 2)
            + 2 * count_lyndon(2, 1)
            == 924
        )
        assert 924 == 12 * 75 + 6 * 3 + 4 * 1 + 2 * 1
        assert time.time() - start < 1.0


def test_criterion_03_first_worked_example():
    with criterion(3, "homogeneous construction worked example n=6 m=15"):
        inst = RegularInstance(6, 15, 2, 5)
        built = rec_regular_with_plan(inst)
        expected = (
            tuple(cyclic_shift("000011", i) for i in range(6))
            + tuple(cyclic_shift("000101", i) for i in range(6))
            + tuple(cyclic_shift("001001", i) for i in range(3))
        )
        assert built.matrix.rows == expected
        plan = [(l.divisor, l.full_words, l.partial_blocks) for l in built.levels]
        assert plan == [(1, 2, 0), (2, 1, 0)]
        assert verify(built.matrix, inst).ok


def test_criterion_04_second_worked_example():
    with criterion(4, "homogeneous construction worked example n=9 m=15"):
        inst = RegularInstance(9, 15, 3, 5)
        built = rec_regular_with_plan(inst)
        rows = built.matrix.rows
        assert rows[:9] == tuple(cyclic_shift("000001011", i) for i in range(9))
        assert "000001011" in rows
        (level,) = built.levels
        assert level.full_words == 1
        assert level.partial_blocks == 2
        # the withheld word 0^6 1^3 appears only through its coset blocks
        assert rows[9:12] == tuple(cyclic_shift("000000111", 3 * i) for i in range(3))
        assert rows[12:15] == tuple(cyclic_shift("100000011", 3 * i) for i in range(3))
        assert verify(built.matrix, inst).ok


def test_criterion_05_span_one_worked_example():
    with criterion(5, "span-one construction worked example"):
        inst = SpanOneInstance(9, 3, 5, 3, 6)
        built = rec_span_one_with_plan(inst)
        plan = built.plan_json()
        assert plan["lifted_ones"] == 45
        assert plan["lifted_rows"] == 15
        assert plan["lifted_degree"] == 5
        assert plan["rows_deleted"] == 2
        assert built.matrix.nrows == 13
        assert built.matrix.ncols == 9
        assert verify(built.matrix, inst).ok


def test_criterion_06_characterization_equivalence():
    with criterion(6, "feasibility checks match the exhaustive oracle, n <= 6"):
        start = time.time()
        for n in range(1, 7):
            for h in range(1, n + 1):
                cap = h * binomial(n, h) // n
                for v in range(cap + 3):
                    if (n * v) % h:
                        continue
                    inst = RegularInstance(n, n * v // h, h, v)
                    assert (
                        check_regular(inst).feasible
                        == exists_distinct_rows(n, h, inst.degree_vector()).exists
                    ), inst
                for v in range(1, cap + 3):
                    for n0 in range(1, n):
                        span = SpanOneInstance(n, h, v, n0, n - n0)
                        verdict = check_span_one(span)
                        vector = span.degree_vector()
                        if sum(vector) % h:
                            assert verdict.violated == "integrality"
                            continue
                        assert (
                            verdict.feasible
                            == exists_distinct_rows(n, h, vector).exists
                        ), span
        elapsed = time.time() - start
        assert elapsed < 120, f"equivalence sweep took {elapsed:.1f}s"


def test_criterion_07_total_construction_sweep():
    with criterion(7, "every feasible instance reconstructs and verifies"):
        start = time.time()
        built_count = 0
        for n in range(1, 13):
            for h in range(n + 1):
                if h == 0:
                    for m in (0, 1):
                        inst = RegularInstance(n, m, 0, 0)
                        assert check_regular(inst).feasible
                        assert verify(rec_regular_with_plan(inst).matrix, inst).ok
                        built_count += 1
                    continue
                cap = h * binomial(n, h) // n
                for v in range(cap + 1):
                    if (n * v) % h:
                        continue
                    inst = RegularInstance(n, n * v // h, h, v)
                    if not check_regular(inst).feasible:
                        continue
                    assert verify(rec_regular_with_plan(inst).matrix, inst).ok, inst
                    built_count += 1
        for n in range(2, 10):
            for h in range(1, n):
                cap = h * binomial(n, h) // n
                for v in range(1, cap + 2):
                    for n0 in range(1, n):
                        span = SpanOneInstance(n, h, v, n0, n - n0)
                        if not check_span_one(span).feasible:
                            continue
                        assert verify(rec_span_one_with_plan(span).matrix, span).ok, span
                        built_count += 1
        elapsed = time.time() - start
        assert built_count > 2000
        assert elapsed < 300, f"construction sweep took {elapsed:.1f}s"


def test_criterion_08_twin_free_bipartite():
    with criterion(8, "twin-free regular bipartite matrices for n <= 12"):
        for n in range(2, 13):
            for k in range(1, n):
                matrix = twin_free_bipartite(n, k)
                assert matrix.transpose() == matrix, (n, k)
                assert len(set(matrix.rows)) == n
                assert len(set(matrix.transpose().rows)) == n
                assert set(matrix.row_sums()) == {k}
                assert set(matrix.col_sums()) == {k}


def test_criterion_09_gale_ryser_vs_oracle():
    with criterion(9, "dominance test matches exhaustive search, sides <= 5"):
        start = time.time()
        vectors = [
            tuple(combo)
            for length in range(1, 6)
            for combo in combinations_with_replacement(range(5, -1, -1), length)
        ]
        assert len(vectors) == 461
        for H in vectors:
            for V in vectors:
                assert gale_ryser_check(H, V) == exists_any_matrix(H, V), (H, V)
        # both sides are invariant under reordering, so the sorted
        # representatives above cover every vector pair; spot-check that
        for H in [(2, 0, 2), (1, 3), (0, 1, 2, 3)]:
            for V in [(3, 1), (1, 1, 2), (2, 2, 1)]:
                want = gale_ryser_check(tuple(sorted(H, reverse=True)), tuple(sorted(V, reverse=True)))
                for HP in permutations(H):
                    for VP in permutations(V):
                        assert gale_ryser_check(HP, VP) == want
                        assert exists_any_matrix(HP, VP) == want
        elapsed = time.time() - start
        assert elapsed < 60, f"projection sweep took {elapsed:.1f}s"


def test_criterion_10_generation_smoke():
    with criterion(10, "prefix generation of a large fixed-density class"):
        start = time.time()
        words = list(islice(gen_lyndon(24, 12), 10**4))
        elapsed = time.time() - start
        assert len(words) == 10**4
        assert all(a < b for a, b in zip(words, words[1:]))
        assert elapsed < 10, f"prefix generation took {elapsed:.2f}s"
