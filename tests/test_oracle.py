import pytest

from hyperdeg.feasibility import RegularInstance, SpanOneInstance
from hyperdeg.oracle import OracleResult, exists_any_matrix, exists_distinct_rows
from hyperdeg.reconstruct import verify
from hyperdeg.words import BinaryMatrix


class TestExistsDistinctRows:
    def test_witness_is_every_word_but_0011(self):
        result = exists_distinct_rows(4, 2, (3, 3, 2, 2))
        assert result.exists
        assert set(result.witness.rows) == {"0101", "0110", "1001", "1010", "1100"}
        assert result.witness.col_sums() == (3, 3, 2, 2)

    def test_pigeonhole_limit(self):
        assert not exists_distinct_rows(6, 2, (6,) * 6).exists

    def test_single_full_row(self):
        result = exists_distinct_rows(3, 3, (1, 1, 1))
        assert result.exists
        assert result.witness.rows == ("111",)

    def test_zero_row_sum(self):
        assert exists_distinct_rows(4, 0, (0, 0, 0, 0)).witness == BinaryMatrix((), 4)
        assert not exists_distinct_rows(4, 0, (1, 0, 0, 0)).exists

    def test_witnesses_pass_verify(self):
        regular = RegularInstance(6, 15, 2, 5)
        result = exists_distinct_rows(6, 2, regular.degree_vector())
        assert verify(result.witness, regular).ok
        span = SpanOneInstance(6, 3, 2, 3, 3)
        result = exists_distinct_rows(6, 3, span.degree_vector())
        assert verify(result.witness, span).ok

    def test_edge_size_above_column_count(self):
        # Listing the candidate rows would first allocate h indices: 8 PB here.
        assert exists_distinct_rows(3, 10**15, (10**16,) * 3) == OracleResult(False)
        assert exists_distinct_rows(3, 10**30, (0, 0, 0)).witness == BinaryMatrix((), 3)

    def test_deterministic(self):
        a = exists_distinct_rows(5, 2, (2, 2, 2, 2, 2))
        b = exists_distinct_rows(5, 2, (2, 2, 2, 2, 2))
        assert a == b and a.exists

    def test_guards(self):
        with pytest.raises(ValueError):
            exists_distinct_rows(9, 2, (1,) * 9)
        with pytest.raises(ValueError):
            exists_distinct_rows(4, 2, (1, 1, 1))
        with pytest.raises(ValueError):
            exists_distinct_rows(4, 2, (1, 1, 1, -1))
        assert not exists_distinct_rows(4, 3, (1, 1, 1, 1)).exists  # total not divisible by h

    @pytest.mark.parametrize("h, col_sums", [(0, (0, 0)), (1, (1, 1))])
    def test_a_column_count_that_is_no_integer_is_refused(self, h, col_sums):
        # The witness is stored unchecked, so the column count is checked
        # where it enters, whatever the row sum.
        with pytest.raises(ValueError, match="column count must be an integer, got 2.0"):
            exists_distinct_rows(2.0, h, col_sums)

    def test_a_row_sum_that_is_no_integer_is_refused(self):
        with pytest.raises(ValueError, match=r"^row sum must be an integer, got 1\.0$"):
            exists_distinct_rows(3, 1.0, (1, 1, 1))

    def test_exact_vector_search_respects_order(self):
        ordered = exists_distinct_rows(4, 2, (3, 3, 2, 2))
        assert ordered.witness.col_sums() == (3, 3, 2, 2)
        swapped = exists_distinct_rows(4, 2, (2, 2, 3, 3))
        assert swapped.exists
        assert swapped.witness.col_sums() == (2, 2, 3, 3)


class TestExistsAnyMatrix:
    def test_documented_cases(self):
        assert not exists_any_matrix((2, 2, 0), (3, 1))
        assert exists_any_matrix((2, 2), (1, 1, 1, 1))
        assert exists_any_matrix((0,), (0,))

    def test_duplicate_rows_allowed(self):
        # distinct-rows search says no, unconstrained search says yes
        assert exists_any_matrix((1, 1), (2,))
        assert not exists_distinct_rows(1, 1, (2,)).exists

    def test_guards(self):
        with pytest.raises(ValueError):
            exists_any_matrix((1,) * 6, (1, 1))
        with pytest.raises(ValueError):
            exists_any_matrix((1, 1), (1,) * 6)
        with pytest.raises(ValueError):
            exists_any_matrix((-1,), (0,))

    def test_row_sum_exceeding_columns(self):
        assert not exists_any_matrix((4,), (2, 2))
        assert exists_any_matrix((3, 2), (2, 2, 1))
