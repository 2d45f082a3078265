import math
import sys
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperdeg import necklaces
from hyperdeg.necklaces import (
    binomial,
    common_divisors,
    count_lyndon,
    count_necklaces,
    euler_phi,
    gen_lyndon,
    gen_necklaces,
    mobius,
)
from hyperdeg.words import canonical, is_lyndon

from conftest import brute_lyndon, brute_necklaces

# classical value tables for j = 1..12
PHI = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
MU = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


class TestHelpers:
    @pytest.mark.parametrize(
        "n,h,expected",
        [(12, 6, [1, 2, 3, 6]), (6, 2, [1, 2]), (9, 3, [1, 3]), (7, 5, [1])],
    )
    def test_common_divisors(self, n, h, expected):
        assert common_divisors(n, h) == expected

    def test_common_divisors_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            common_divisors(0, 3)
        with pytest.raises(ValueError):
            common_divisors(3, 0)

    def test_euler_phi_table(self):
        assert [euler_phi(j) for j in range(1, 13)] == PHI

    def test_mobius_table(self):
        assert [mobius(j) for j in range(1, 13)] == MU

    @given(st.integers(min_value=1, max_value=200))
    def test_phi_divisor_sum_identity(self, n):
        assert sum(euler_phi(d) for d in range(1, n + 1) if n % d == 0) == n

    @given(st.integers(min_value=2, max_value=200))
    def test_mobius_divisor_sum_is_zero(self, n):
        assert sum(mobius(d) for d in range(1, n + 1) if n % d == 0) == 0

    def test_binomial(self):
        assert binomial(4, 2) == 6
        assert binomial(12, 6) == 924
        assert binomial(9, 3) == 84
        assert binomial(3, 5) == 0
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)

    def test_binomial_against_factorials(self):
        f = math.factorial
        assert binomial(12, 6) == f(12) // (f(6) * f(6))
        assert binomial(9, 3) == f(9) // (f(3) * f(6))


class TestCounting:
    def test_documented_values(self):
        assert count_necklaces(4, 2) == 2
        assert count_lyndon(4, 2) == 1
        assert count_lyndon(6, 2) == 2
        assert count_lyndon(9, 3) == 9
        assert count_necklaces(6, 2) == 3

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero_density_classes(self, n):
        assert count_necklaces(n, 0) == 1
        assert count_necklaces(n, n) == 1
        assert count_lyndon(n, 0) == (1 if n == 1 else 0)
        assert count_lyndon(n, n) == (1 if n == 1 else 0)

    def test_counts_match_enumeration(self):
        for n in range(1, 13):
            for d in range(n + 1):
                assert count_necklaces(n, d) == len(brute_necklaces(n, d)), (n, d)
                assert count_lyndon(n, d) == len(brute_lyndon(n, d)), (n, d)

    def test_rejects_bad_density_class(self):
        with pytest.raises(ValueError):
            count_necklaces(0, 0)
        with pytest.raises(ValueError):
            count_necklaces(4, 5)
        with pytest.raises(ValueError):
            count_lyndon(4, -1)
        # A length or density that is no integer is named; the generators
        # refuse it at the call, before the first word.
        for function in (count_lyndon, count_necklaces, gen_lyndon, gen_necklaces):
            for n, d, bad in [(6, 2.0, "2.0"), (6.0, 2, "6.0"), (6, "2", "'2'")]:
                with pytest.raises(ValueError) as info:
                    function(n, d)
                assert str(info.value) == f"word length and density must be integers, got {bad}"


def _reference_generate(n, d, lyndon):
    """The reference for `necklaces._nodes` and the streams read from it: the
    same FKM recursion as a generator, without the cut at the last one, each
    leaf joined symbol by symbol."""
    necklaces._check_density_class(n, d)
    word = bytearray(n + 1)  # word[0] is the sentinel read by the copy step

    def extend(t, p, ones):
        if ones > d or d - ones > n - t + 1:
            return
        if t > n:
            emit = (p == n) if lyndon else (n % p == 0)
            if emit:
                yield "".join("01"[b] for b in word[1:])
            return
        copied = word[t - p]
        word[t] = copied
        yield from extend(t + 1, p, ones + copied)
        if copied == 0:
            word[t] = 1
            yield from extend(t + 1, t, ones + 1)

    return extend(1, 1, 0)


class TestGeneration:
    def test_documented_streams(self):
        assert list(gen_lyndon(6, 2)) == ["000011", "000101"]
        assert list(gen_lyndon(3, 1)) == ["001"]
        assert list(islice(gen_lyndon(9, 3), 2)) == ["000000111", "000001011"]
        assert list(gen_necklaces(4, 2)) == ["0011", "0101"]
        assert list(gen_necklaces(4, 4)) == ["1111"]
        assert list(gen_necklaces(6, 3)) == ["000111", "001011", "001101", "010101"]

    def test_matches_enumeration(self):
        for n in range(1, 11):
            for d in range(n + 1):
                assert list(gen_necklaces(n, d)) == brute_necklaces(n, d), (n, d)
                assert list(gen_lyndon(n, d)) == brute_lyndon(n, d), (n, d)

    def test_matches_the_reference_up_to_18(self):
        for n in range(1, 19):
            for d in range(n + 1):
                assert list(gen_lyndon(n, d)) == list(_reference_generate(n, d, True)), (n, d)
                assert list(gen_necklaces(n, d)) == list(_reference_generate(n, d, False)), (n, d)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 150, 299, 300, 301, 599, 600])
    def test_closed_forms_of_long_words(self, n):
        # Density 2: 0^a 1 0^b 1 with a + b = n - 2, by decreasing a; Lyndon
        # words need a > b, necklaces a >= b. Density 1: 0^(n-1) 1 alone.
        gaps = [(a, n - 2 - a) for a in range(n - 2, -1, -1)]

        def word(a, b):
            return "0" * a + "1" + "0" * b + "1"

        assert list(gen_lyndon(n, 2)) == [word(a, b) for a, b in gaps if a > b]
        assert list(gen_necklaces(n, 2)) == [word(a, b) for a, b in gaps if a >= b]
        assert list(gen_lyndon(n, 1)) == list(gen_necklaces(n, 1)) == ["0" * (n - 1) + "1"]

    def test_work_grows_as_n_squared_at_density_2(self):
        # Each call of the inner recursion is one profile event; cutting
        # below the last one keeps (n, 2) to O(n^2) of them, where walking on
        # to each rejected leaf takes O(n^3).
        n, calls = 200, 0

        def count(frame, event, arg):
            nonlocal calls
            code = frame.f_code
            if event == "call" and code.co_name == "extend" and code.co_filename == necklaces.__file__:
                calls += 1

        sys.setprofile(count)
        try:
            words = list(gen_lyndon(n, 2))
        finally:
            sys.setprofile(None)
        assert len(words) == count_lyndon(n, 2)
        assert calls <= 2 * n * n, calls

    def test_stream_lengths_match_counts_up_to_16(self):
        for n in range(1, 17):
            for d in range(n + 1):
                assert sum(1 for _ in gen_lyndon(n, d)) == count_lyndon(n, d), (n, d)
                assert sum(1 for _ in gen_necklaces(n, d)) == count_necklaces(n, d), (n, d)

    def test_emitted_words_satisfy_predicates(self):
        for n in range(1, 11):
            for d in range(n + 1):
                for w in gen_necklaces(n, d):
                    assert canonical(w) == w
                for w in gen_lyndon(n, d):
                    assert is_lyndon(w)

    def test_degenerate_density_streams(self):
        assert list(gen_lyndon(1, 0)) == ["0"]
        assert list(gen_lyndon(1, 1)) == ["1"]
        assert list(gen_lyndon(5, 0)) == []
        assert list(gen_lyndon(5, 5)) == []
        assert list(gen_necklaces(5, 0)) == ["00000"]

    @pytest.mark.parametrize("generate", [gen_lyndon, gen_necklaces])
    @pytest.mark.parametrize("n", [10**20, 2**62], ids=["past-ssize_t", "2^62"])
    def test_a_word_too_long_to_store_is_refused_at_the_call(self, generate, n):
        # Past the index range the word buffer raises OverflowError; at 2^62
        # it raises MemoryError before it allocates anything.
        with pytest.raises(ValueError, match=f"^word length {n} is too large to store$"):
            generate(n, 1)

    def test_streams_restart_independently(self):
        first = gen_lyndon(6, 3)
        assert next(first) == "000111"
        second = gen_lyndon(6, 3)
        assert list(second) == ["000111", "001011", "001101"]
        assert list(first) == ["001011", "001101"]

    def test_resuming_after_each_word_gives_the_rest_up_to_14(self):
        for n in range(1, 15):
            for d in range(n + 1):
                for lyndon in (True, False):
                    words = list(_reference_generate(n, d, lyndon))
                    for i, after in enumerate(words):
                        rest = []
                        necklaces._nodes(n, d, len(words), lyndon, after, rest)(1, 1, 0, True)
                        assert rest == words[i + 1 :], (n, d, lyndon, after)

    @pytest.mark.parametrize("generate", [gen_lyndon, gen_necklaces])
    def test_a_stream_read_to_k_words_walks_at_most_2k(self, monkeypatch, generate):
        # A walk finds at most the words it asks for.
        asked = []
        nodes = necklaces._nodes

        def counted(n, d, limit, lyndon, after, words):
            asked.append(limit)
            return nodes(n, d, limit, lyndon, after, words)

        monkeypatch.setattr(necklaces, "_nodes", counted)
        for k in range(1, necklaces._BATCH):
            asked.clear()
            words = list(islice(generate(24, 12), k))
            assert len(words) == k
            assert sum(asked) <= 2 * k, k
            assert generate(24, 12).first(k) == words

    @pytest.mark.parametrize("n", [10, 50, 200])
    def test_a_stream_nests_n_plus_1_frames_below_its_reader(self, n):
        # The stream's `__next__` and one walk frame per position, as the
        # plan's `first`: a frame more moves the longest word `gen` prints.
        reader = sys._getframe()
        deepest = 0

        def profile(frame, event, arg):
            nonlocal deepest
            if event == "call" and frame.f_code.co_filename == necklaces.__file__:
                depth = 0
                while frame is not None and frame is not reader:
                    depth, frame = depth + 1, frame.f_back
                if frame is not None:
                    deepest = max(deepest, depth)

        stream = gen_lyndon(n, 1)
        sys.setprofile(profile)
        try:
            assert next(stream) == "0" * (n - 1) + "1"
        finally:
            sys.setprofile(None)
        assert deepest == n + 1

    def test_early_termination_is_cheap(self):
        assert list(islice(gen_lyndon(24, 12), 3)) == [
            "000000000000111111111111",
            "000000000001011111111111",
            "000000000001101111111111",
        ]


class TestClassPartition:
    def test_identity_up_to_16(self):
        for n in range(1, 17):
            for h in range(1, n + 1):
                total = sum(
                    (n // d) * count_lyndon(n // d, h // d)
                    for d in common_divisors(n, h)
                )
                assert total == binomial(n, h), (n, h)

    def test_necklace_totals_match_unrestricted_count(self):
        # length 4: six necklaces across all densities
        assert sum(count_necklaces(4, d) for d in range(5)) == 6
        union = [w for d in range(5) for w in gen_necklaces(4, d)]
        assert sorted(union) == ["0000", "0001", "0011", "0101", "0111", "1111"]
