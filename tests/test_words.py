import math
import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperdeg.words import (
    BinaryMatrix,
    _row_of_ones,
    block_submatrix,
    canonical,
    cyclic_shift,
    density,
    is_lyndon,
    period,
    shift_matrix,
)

from conftest import rotations

words = st.text(alphabet="01", min_size=1, max_size=24)


class TestCyclicShift:
    def test_single_step(self):
        assert cyclic_shift("001", 1) == "010"
        assert cyclic_shift("000011", 1) == "000110"

    def test_full_rotation_is_identity(self):
        assert cyclic_shift("011010", 6) == "011010"

    @given(words, st.integers(min_value=0, max_value=100))
    def test_matches_index_formula(self, w, k):
        shifted = cyclic_shift(w, k)
        n = len(w)
        assert all(shifted[j] == w[(j + k) % n] for j in range(n))

    @given(words, st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
    def test_composes_additively(self, w, a, b):
        assert cyclic_shift(cyclic_shift(w, a), b) == cyclic_shift(w, a + b)

    @given(words, st.integers(min_value=0, max_value=50))
    def test_preserves_density(self, w, k):
        assert density(cyclic_shift(w, k)) == density(w)

    def test_rejects_bad_words(self):
        with pytest.raises(ValueError):
            cyclic_shift("", 1)
        with pytest.raises(ValueError):
            cyclic_shift("01x", 1)

    def test_error_names_the_symbol_not_the_whole_word(self):
        with pytest.raises(ValueError, match="'x' at column 5001") as info:
            cyclic_shift("0" * 5000 + "x", 1)
        assert len(str(info.value)) < 200


class TestPeriod:
    def test_examples(self):
        assert period("0101") == 2
        assert period("0011" * 3) == 4

    def test_000101_all_shifts_distinct(self):
        shifts = {cyclic_shift("000101", i) for i in range(6)}
        assert len(shifts) == 6
        assert period("000101") == 6

    @given(words)
    def test_divides_length_and_counts_distinct_shifts(self, w):
        p = period(w)
        assert len(w) % p == 0
        assert len(set(rotations(w))) == p

    def test_matches_the_shift_loop_up_to_12(self):
        def by_shifts(w):
            n = len(w)
            return next(p for p in range(1, n + 1) if n % p == 0 and w == w[p:] + w[:p])

        for n in range(1, 13):
            for w in map("".join, product("01", repeat=n)):
                assert period(w) == by_shifts(w), w

    @given(words)
    def test_smallest_fixed_shift(self, w):
        p = period(w)
        assert cyclic_shift(w, p) == w
        assert all(cyclic_shift(w, q) != w for q in range(1, p))


class TestCanonical:
    def test_examples(self):
        assert canonical("1100") == "0011"
        assert canonical("0101") == "0101"

    def test_110100_by_rotation_enumeration(self):
        expected = min(rotations("110100"))
        assert expected == "001101"
        assert canonical("110100") == expected

    @given(words)
    def test_least_rotation_idempotent_same_invariants(self, w):
        c = canonical(w)
        assert c == min(rotations(w))
        assert canonical(c) == c
        assert period(c) == period(w)
        assert density(c) == density(w)


class TestIsLyndon:
    def test_examples(self):
        assert is_lyndon("0011")
        assert not is_lyndon("0101")
        assert not is_lyndon("0110")

    @given(words)
    def test_matches_brute_force_definition(self, w):
        rots = rotations(w)
        assert is_lyndon(w) == (w == min(rots) and len(set(rots)) == len(w))


class TestShiftMatrix:
    @pytest.mark.parametrize(
        "word,rows,colsum",
        [("01" * 6, 2, 1), ("0011" * 3, 4, 2), ("0" * 6 + "1" * 6, 12, 6)],
    )
    def test_documented_shapes(self, word, rows, colsum):
        m = shift_matrix(word)
        assert m.nrows == rows
        assert m.col_sums() == (colsum,) * 12
        assert len(set(m.rows)) == m.nrows

    @given(words)
    def test_rows_distinct_and_column_homogeneous(self, w):
        m = shift_matrix(w)
        p = period(w)
        assert m.rows == tuple(cyclic_shift(w, i) for i in range(p))
        assert len(set(m.rows)) == p
        assert set(m.col_sums()) == {density(w) * p // len(w)}

    @given(words.filter(lambda w: len(set(rotations(w))) == len(w)))
    def test_aperiodic_words_give_symmetric_circulants(self, w):
        m = shift_matrix(w)
        assert m.transpose() == m


class TestBlockSubmatrix:
    def test_9_3_block0(self):
        m = block_submatrix(9, 3, 0)
        assert set(m.rows) == {"000000111", "000111000", "111000000"}
        assert m.col_sums() == (1,) * 9

    def test_4_2_blocks(self):
        assert set(block_submatrix(4, 2, 0).rows) == {"0011", "1100"}
        assert set(block_submatrix(4, 2, 1).rows) == {"1001", "0110"}
        assert block_submatrix(4, 2, 0).col_sums() == (1, 1, 1, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            block_submatrix(4, 2, 2)
        with pytest.raises(ValueError):
            block_submatrix(4, 2, -1)
        with pytest.raises(ValueError):
            block_submatrix(4, 4, 0)
        with pytest.raises(ValueError):
            block_submatrix(4, 0, 0)

    @pytest.mark.parametrize(
        "args, value", [((9.0, 3, 1), 9.0), ((9, 3.0, 1), 3.0), ((9, 3, 1.0), 1.0)]
    )
    def test_an_argument_that_is_no_integer_is_refused(self, args, value):
        with pytest.raises(ValueError) as info:
            block_submatrix(*args)
        assert str(info.value) == (
            f"word length, density and block index must be integers, got {value!r}"
        )

    def test_block_row_count_is_minimal(self):
        # Among matrices with row sums h and homogeneous column sums, no row
        # count below n/gcd(n,h) even balances the totals, and the block
        # itself achieves that count (existence confirmed by the oracle).
        from hyperdeg.oracle import exists_distinct_rows

        for n in range(2, 7):
            for h in range(1, n):
                k = n // math.gcd(n, h)
                for m in range(1, k):
                    assert (m * h) % n != 0
                v = k * h // n
                assert exists_distinct_rows(n, h, (v,) * n).exists
                assert block_submatrix(n, h, 0).nrows == k

    @given(
        st.integers(min_value=2, max_value=40).flatmap(
            lambda n: st.integers(min_value=1, max_value=n - 1).flatmap(
                lambda h: st.tuples(
                    st.just(n), st.just(h), st.integers(min_value=0, max_value=math.gcd(n, h) - 1)
                )
            )
        )
    )
    def test_rows_match_shift_definition(self, case):
        n, h, j = case
        word = "1" * j + "0" * (n - h) + "1" * (h - j)
        expected = tuple(cyclic_shift(word, i * h) for i in range(n // math.gcd(n, h)))
        assert block_submatrix(n, h, j).rows == expected

    @pytest.mark.parametrize("n,h", [(4, 2), (6, 2), (6, 3), (6, 4), (9, 3), (9, 6), (12, 8), (8, 5)])
    def test_blocks_partition_the_rotation_class(self, n, h):
        g = math.gcd(n, h)
        base = "0" * (n - h) + "1" * h
        whole_class = set(rotations(base))
        seen: set[str] = set()
        for j in range(g):
            block = block_submatrix(n, h, j)
            assert block.nrows == n // g
            assert set(block.col_sums()) == {h // g}
            assert not (set(block.rows) & seen)
            seen |= set(block.rows)
        assert seen == whole_class
        assert len(seen) == n


class TestRowOfOnes:
    @pytest.mark.parametrize("base", [0, 1])
    def test_marks_exactly_the_given_columns(self, base):
        for n in range(7):
            for ones in product((0, 1), repeat=n):
                columns = [j + base for j, bit in enumerate(ones) if bit]
                expected = "".join(map(str, ones))
                assert _row_of_ones(columns, n, base) == expected
                assert _row_of_ones(iter(columns[::-1]), n, base) == expected


class TestBinaryMatrix:
    def test_validates_rows(self):
        with pytest.raises(ValueError):
            BinaryMatrix(("01", "001"), 2)
        with pytest.raises(ValueError):
            BinaryMatrix(("0a",), 2)
        with pytest.raises(ValueError):
            BinaryMatrix((), 0)
        with pytest.raises(ValueError):
            BinaryMatrix(("01", ""), 2)
        for rows, ncols in [((), 2.5), (("01",), 2.0), (("01",), "2")]:
            with pytest.raises(ValueError) as info:
                BinaryMatrix(rows, ncols)
            assert str(info.value) == f"column count must be an integer, got {ncols!r}"

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("0" * 700 + "2" + "0" * 299, "row 1100 has symbol '2' at column 701"),
            ("0" * 999, "row 1100 has 999 columns, not 1000"),
            ("0" * 1001, "row 1100 has 1001 columns, not 1000"),
        ],
        ids=["symbol", "short", "long"],
    )
    def test_rejects_a_bad_row_past_the_first_joined_block(self, bad, message):
        # 1099 good rows of 1000 columns fill more than 2^20 symbols first.
        rows = ("01" * 500,) * 1099 + (bad,) + ("10" * 500,) * 5
        with pytest.raises(ValueError, match=message) as info:
            BinaryMatrix(rows, 1000)
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize(
        "symbol", ["\u00e9", "\ud800", "\u0663"], ids=["non-ascii", "lone-surrogate", "digit"]
    )
    def test_non_ascii_symbol_gets_the_row_and_column(self, symbol):
        # The block check encodes its rows to ASCII; whatever does not encode
        # must still fail, and be named with its row and column.
        rows = ("0101", "01" + symbol + "1")
        with pytest.raises(ValueError) as info:
            BinaryMatrix(rows, 4)
        assert str(info.value) == (
            f"row 2 has symbol {symbol!r} at column 3; only '0' and '1' are allowed: {rows[1]!r}"
        )

    def test_sums_and_renderers(self):
        m = BinaryMatrix(("0011", "1100"), 4)
        assert m.row_sums() == (2, 2)
        assert m.col_sums() == (1, 1, 1, 1)
        assert m.transpose().rows == ("01", "01", "10", "10")

    @given(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.text(alphabet="01", min_size=n, max_size=n), max_size=30),
                st.booleans(),
                st.booleans(),
            )
        )
    )
    def test_col_sums_match_per_character_definition(self, case):
        n, rows, zeros, ones = case
        rows = sorted(rows | ({"0" * n} if zeros else set()) | ({"1" * n} if ones else set()))
        expected = tuple(sum(row[j] == "1" for row in rows) for j in range(n))
        assert BinaryMatrix(tuple(rows), n).col_sums() == expected

    def test_col_sums_across_join_chunks(self):
        # 2500 rows of 1000 columns span three joined chunks of rows.
        rng = random.Random(5)
        rows = tuple(format(rng.getrandbits(1000), "01000b") for _ in range(2500))
        expected = tuple(sum(row[j] == "1" for row in rows) for j in range(1000))
        assert BinaryMatrix(rows, 1000).col_sums() == expected

    def test_empty_rows_allowed_with_columns(self):
        m = BinaryMatrix((), 3)
        assert m.nrows == 0
        assert m.col_sums() == (0, 0, 0)
        with pytest.raises(ValueError):
            m.transpose()
