import functools
import math
import random
import sys
from collections import Counter
from itertools import chain, cycle, filterfalse, islice, product
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperdeg import necklaces, reconstruct
from hyperdeg.feasibility import RegularInstance, SpanOneInstance, check_regular, check_span_one
from hyperdeg.hypergraphs import from_incidence, realize
from hyperdeg.necklaces import binomial, gen_lyndon
from hyperdeg.reconstruct import (
    _BUILDERS,
    ConstructionInvariantError,
    VerifyResult,
    rec_regular_with_plan,
    rec_span_one_with_plan,
    twin_free_bipartite,
    verify,
)
from hyperdeg.words import BinaryMatrix, cyclic_shift


def feasible_regular_instances(max_n):
    for n in range(1, max_n + 1):
        for h in range(0, n + 1):
            if h == 0:
                yield RegularInstance(n, 0, 0, 0)
                yield RegularInstance(n, 1, 0, 0)
                continue
            cap = h * binomial(n, h) // n
            for v in range(cap + 1):
                if (n * v) % h:
                    continue
                inst = RegularInstance(n, n * v // h, h, v)
                if check_regular(inst).feasible:
                    yield inst


def feasible_span_one_instances(max_n, max_v=None):
    for n in range(2, max_n + 1):
        for h in range(1, n):
            cap = h * binomial(n, h) // n
            top = cap + 1 if max_v is None else min(cap + 1, max_v)
            for v in range(1, top + 1):
                for n0 in range(1, n):
                    inst = SpanOneInstance(n, h, v, n0, n - n0)
                    if check_span_one(inst).feasible:
                        yield inst


class _EdgeCheck:
    """The reference for `reconstruct._check_plan`: the same properties,
    checked on the emitted edges. Exactly m edges, each of size h, no two
    equal (a set of all the edges), every vertex in 1..n, and the degree of
    each vertex counted edge by edge.

    A sweep over many instances meets the same segments again and again, so
    each segment's edges, their set and their vertex counts are emitted once
    and kept; an instance then joins its segments' sets and adds their
    counts."""

    def __init__(self):
        self._segments = {}

    def _emit(self, word, shifts):
        edges = reconstruct._edges([(word, shifts)])
        degrees = Counter(chain.from_iterable(edges))
        return (
            len(edges),
            set(map(len, edges)),
            frozenset(edges),
            min(degrees, default=1),
            max(degrees, default=1),
            [degrees[vertex] for vertex in range(1, len(word) + 1)],
        )

    def problem(self, segments, inst):
        """The message the edge check raised for this plan, or None."""
        if not segments:
            return None if inst.m == 0 else f"built 0 edges, expected {inst.m}"
        keys = [seg if type(seg[1]) is range else (seg[0], tuple(seg[1])) for seg in segments]
        for word, shifts in filterfalse(self._segments.__contains__, set(keys)):
            self._segments[word, shifts] = self._emit(word, shifts)
        counts, sizes, sets, lows, highs, degrees = zip(*map(self._segments.__getitem__, keys))
        count = sum(counts)
        if count != inst.m:
            return f"built {count} edges, expected {inst.m}"
        if set().union(*sizes) - {inst.h}:
            return f"built an edge not of size {inst.h}"
        if len(frozenset().union(*sets)) != count:
            return "built parallel edges"
        if min(lows) < 1 or max(highs) > inst.n:
            return "built a vertex outside 1..n"
        if tuple(map(sum, zip(*degrees))) != inst.degree_vector():
            return "column sums missed the target vector"
        return None


def _plan_problem(segments, inst):
    """The message `_check_plan` raises for this plan, or None."""
    try:
        reconstruct._check_plan(segments, inst)
    except ConstructionInvariantError as error:
        assert (error.instance, error.divisor) == (inst, None)
        return str(error).removesuffix(f" of {inst}")
    return None


# Plans of (9, 15, 3, 5): one full class, then both coset blocks of 000000111
# as rotations of it; and of (6, 15, 2, 5): three full classes, the last of
# period 3.
_BLOCKS = [("000001011", range(9)), ("000000111", [0, 3, 6, 8, 2, 5])]
_CLASSES = [("000011", range(6)), ("000101", range(6)), ("001001", range(3))]


class TestPlanCheck:
    """`_check_plan` proves a witness valid from its plan, segment by
    segment; it must accept what the edge check accepts and refuse what it
    refuses."""

    def test_agrees_with_the_edge_check_on_every_instance_up_to_14(self, monkeypatch):
        # 32,885 instances with 27 million edges between them: each segment's
        # edges are emitted once, and each Lyndon stream generated once
        # (test_necklaces checks the streams against brute force).
        generate = reconstruct.gen_lyndon
        streams = functools.cache(lambda n, d: tuple(generate(n, d)))

        def cached(n, d):
            return SimpleNamespace(first=lambda k: streams(n, d)[:k])

        monkeypatch.setattr(reconstruct, "gen_lyndon", cached)
        reference = _EdgeCheck()
        checked = 0
        for inst in feasible_regular_instances(14):
            segments, _ = reconstruct._plan_regular(inst)
            assert _plan_problem(segments, inst) is reference.problem(segments, inst) is None, inst
            checked += 1
        for inst in feasible_span_one_instances(14):
            _, segments, _ = reconstruct._plan_span_one(inst)
            assert _plan_problem(segments, inst) is reference.problem(segments, inst) is None, inst
            checked += 1
        assert checked == 32_885

    @pytest.mark.parametrize(
        "inst, segments, message",
        [
            # A fill one block short, as a coset fill that is not integral
            # would plan it, and a class missing, as a level that leaves the
            # column sums unmet would: `_check_plan` is the only check of both.
            (
                RegularInstance(9, 15, 3, 5),
                _BLOCKS[:1] + [("000000111", [0, 3, 6])],
                "built 12 edges, expected 15",
            ),
            (RegularInstance(6, 15, 2, 5), _CLASSES[1:], "built 9 edges, expected 15"),
            # A word one column short, and one with a one too many.
            (
                RegularInstance(9, 15, 3, 5),
                [("00001011", range(9)), _BLOCKS[1]],
                "built a vertex outside 1..n",
            ),
            (
                RegularInstance(9, 15, 3, 5),
                [("000011011", range(9)), _BLOCKS[1]],
                "built an edge not of size 3",
            ),
            # A symbol other than '0' and '1', which the edges would read as a one.
            (
                RegularInstance(6, 15, 2, 5),
                [("000211", range(6))] + _CLASSES[1:],
                "built an edge not of size 2",
            ),
            # A class or a block twice, in place of the segment after it.
            (RegularInstance(6, 15, 2, 5), _CLASSES[:1] * 2 + _CLASSES[2:], "built parallel edges"),
            (
                RegularInstance(9, 15, 3, 5),
                _BLOCKS[:1] + [("000000111", [0, 3, 6, 0, 3, 6])],
                "built parallel edges",
            ),
            # One shift of a block moved: onto a row of block 0, or off the
            # block's coset, which keeps the rows distinct but the columns not.
            (
                RegularInstance(9, 15, 3, 5),
                _BLOCKS[:1] + [("000000111", [0, 3, 6, 8, 2, 6])],
                "built parallel edges",
            ),
            (
                RegularInstance(9, 15, 3, 5),
                _BLOCKS[:1] + [("000000111", [0, 3, 6, 8, 2, 4])],
                "column sums missed the target vector",
            ),
            # Block 1 as a word rotated into the full class, or onto block 0.
            (
                RegularInstance(9, 15, 3, 5),
                _BLOCKS[:1]
                + [("000000111", [0, 3, 6]), (cyclic_shift("000001011", 1), [0, 3, 6])],
                "built parallel edges",
            ),
            (
                RegularInstance(9, 15, 3, 5),
                _BLOCKS[:1]
                + [("000000111", [0, 3, 6]), (cyclic_shift("000000111", 3), [0, 3, 6])],
                "built parallel edges",
            ),
            # One rotation short of the period, made up by a row of a class
            # not taken: as many distinct rows, uneven columns.
            (
                RegularInstance(6, 6, 2, 2),
                [("000011", range(5)), ("000101", [0])],
                "column sums missed the target vector",
            ),
            # One rotation past the period: shift 3 of 001001 is shift 0.
            (
                RegularInstance(6, 15, 2, 5),
                [("000011", range(6)), ("001001", range(4)), ("000101", range(5))],
                "built parallel edges",
            ),
            # A block shift below zero, which the rows would read mod 9 and
            # the edges not at all.
            (
                RegularInstance(9, 15, 3, 5),
                _BLOCKS[:1] + [("000000111", [0, 3, 6, 8, 2, -4])],
                "built a vertex outside 1..n",
            ),
        ],
        ids=[
            "dropped-block",
            "dropped-class",
            "word-one-column-short",
            "word-one-one-too-many",
            "word-with-a-stray-symbol",
            "duplicated-class",
            "duplicated-block",
            "block-shift-onto-a-row",
            "block-shift-off-its-coset",
            "block-rotated-into-a-full-class",
            "block-rotated-onto-block-0",
            "range-short-of-the-period",
            "range-past-the-period",
            "block-shift-below-zero",
        ],
    )
    def test_refuses_what_the_edge_check_refuses(self, inst, segments, message):
        assert _plan_problem(segments, inst) == message
        assert _EdgeCheck().problem(segments, inst) is not None

    @pytest.mark.parametrize(
        "segments",
        [
            # The coset blocks of 000000111 as two segments of that word.
            _BLOCKS[:1] + [("000000111", [0, 3, 6]), ("000000111", [8, 2, 5])],
            # Block 1 as the rotated word 100000011 and its shifts by h.
            _BLOCKS[:1] + [("000000111", [0, 3, 6]), ("100000011", [0, 3, 6])],
        ],
        ids=["one-class-in-two-segments", "block-as-a-rotated-word"],
    )
    def test_refuses_a_class_not_in_one_segment_of_its_least_word(self, segments):
        # Valid witnesses, but the check's argument needs each rotation class
        # in one segment, named by its least word.
        inst = RegularInstance(9, 15, 3, 5)
        assert _EdgeCheck().problem(segments, inst) is None
        assert _plan_problem(segments, inst) == "built parallel edges"

    def test_refuses_a_listed_shift_past_the_period(self):
        # Shift 14 of 000000111 is the row of shift 5, a valid witness the
        # edges spell, but every renderer takes listed shifts in [0, 9).
        segments = _BLOCKS[:1] + [("000000111", [0, 3, 6, 8, 2, 14])]
        inst = RegularInstance(9, 15, 3, 5)
        assert _EdgeCheck().problem(segments, inst) is None
        assert _plan_problem(segments, inst) == "built a vertex outside 1..n"

    def test_the_unmutated_plans_pass(self):
        plans = [(RegularInstance(9, 15, 3, 5), _BLOCKS), (RegularInstance(6, 15, 2, 5), _CLASSES)]
        for inst, segments in plans:
            assert reconstruct._plan_regular(inst)[0] == segments
            assert _plan_problem(segments, inst) is _EdgeCheck().problem(segments, inst) is None

    def test_builds_no_row_and_no_edge(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the plan check built rows or edges")

        monkeypatch.setattr(reconstruct, "_rotations", refuse)
        monkeypatch.setattr(reconstruct, "_edges", refuse)
        rec_regular_with_plan(RegularInstance(9, 15, 3, 5))
        rec_span_one_with_plan(SpanOneInstance(9, 3, 5, 3, 6))


class TestRecRegularWorkedExamples:
    def test_6_15_2_5_bit_exact(self):
        built = rec_regular_with_plan(RegularInstance(6, 15, 2, 5))
        expected = (
            [cyclic_shift("000011", i) for i in range(6)]
            + [cyclic_shift("000101", i) for i in range(6)]
            + [cyclic_shift("001001", i) for i in range(3)]
        )
        assert list(built.matrix.rows) == expected
        assert [(l.divisor, l.full_words, l.partial_blocks) for l in built.levels] == [
            (1, 2, 0),
            (2, 1, 0),
        ]
        assert verify(built.matrix, built.instance).ok

    def test_9_15_3_5_reserved_word_set_aside(self):
        built = rec_regular_with_plan(RegularInstance(9, 15, 3, 5))
        rows = built.matrix.rows
        assert rows[:9] == tuple(cyclic_shift("000001011", i) for i in range(9))
        assert rows[9:12] == tuple(cyclic_shift("000000111", 3 * i) for i in range(3))
        assert rows[12:] == tuple(cyclic_shift("100000011", 3 * i) for i in range(3))
        (level,) = built.levels
        assert (level.divisor, level.full_words, level.partial_blocks) == (1, 1, 2)
        assert verify(built.matrix, built.instance).ok

    def test_4_2_2_1_pure_partial_fill(self):
        built = rec_regular_with_plan(RegularInstance(4, 2, 2, 1))
        assert built.matrix.rows == ("0011", "1100")
        (level,) = built.levels
        assert (level.full_words, level.partial_blocks) == (0, 1)

    def test_square_case_is_symmetric_with_reserved_first_row(self):
        for n, h in [(4, 2), (5, 2), (6, 3), (7, 4), (9, 3)]:
            matrix = rec_regular_with_plan(RegularInstance(n, n, h, h)).matrix
            assert matrix.rows[0] == "0" * (n - h) + "1" * h
            assert matrix.transpose() == matrix
            assert len(set(matrix.rows)) == n

    def test_degenerate_shapes(self):
        assert rec_regular_with_plan(RegularInstance(5, 0, 3, 0)).matrix.rows == ()
        assert rec_regular_with_plan(RegularInstance(4, 1, 4, 1)).matrix.rows == ("1111",)
        assert rec_regular_with_plan(RegularInstance(1, 1, 1, 1)).matrix.rows == ("1",)
        assert rec_regular_with_plan(RegularInstance(4, 1, 0, 0)).matrix.rows == ("0000",)

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            rec_regular_with_plan(RegularInstance(6, 18, 2, 6))
        with pytest.raises(ValueError):
            rec_regular_with_plan(RegularInstance(4, 3, 2, 2))


class TestWalkDepth:
    @pytest.mark.parametrize("n", [10, 50, 200])
    def test_the_walk_nests_n_plus_1_frames_below_the_plan(self, n):
        # The first word of (n, 1), 0^(n-1) 1, takes the stream's `first`
        # and one walk frame per position. A frame more or less moves the
        # recursion cap of every construction, and with it which long
        # instances build; the call-site spies cannot see inside the walk.
        plan = reconstruct._plan_regular.__code__
        deepest = 0

        def profile(frame, event, arg):
            nonlocal deepest
            if event == "call" and frame.f_code.co_filename == necklaces.__file__:
                depth = 0
                while frame is not None and frame.f_code is not plan:
                    depth, frame = depth + 1, frame.f_back
                if frame is not None:
                    deepest = max(deepest, depth)

        sys.setprofile(profile)
        try:
            assert realize((1,) * n, 1).status == "realized"
        finally:
            sys.setprofile(None)
        assert deepest == n + 1


class TestConstructionInvariantError:
    def test_names_instance_and_level(self, monkeypatch):
        no_words = SimpleNamespace(first=lambda k: [])
        monkeypatch.setattr(reconstruct, "gen_lyndon", lambda n, d: no_words)
        inst = RegularInstance(6, 15, 2, 5)
        with pytest.raises(ConstructionInvariantError) as info:
            rec_regular_with_plan(inst)
        assert (info.value.instance, info.value.divisor) == (inst, 1)
        assert str(info.value) == f"ran out of Lyndon words at divisor level 1 of {inst}"

    def test_failure_after_the_levels_has_no_level(self, monkeypatch):
        plan = reconstruct._plan_span_one

        def misplaced_deletion(inst):
            # The cut coset blocks ('000000111', [6, 8, 2, 5]) keep shift 0 in
            # place of shift 6: as many distinct rows, but the first columns
            # lowered.
            lifted, segments, levels = plan(inst)
            assert segments[1] == ("000000111", [6, 8, 2, 5])
            segments[1] = ("000000111", [0, 8, 2, 5])
            return lifted, segments, levels

        monkeypatch.setattr(reconstruct, "_plan_span_one", misplaced_deletion)
        inst = SpanOneInstance(9, 3, 5, 3, 6)
        with pytest.raises(ConstructionInvariantError) as info:
            rec_span_one_with_plan(inst)
        assert (info.value.instance, info.value.divisor) == (inst, None)
        assert str(info.value) == f"column sums missed the target vector of {inst}"

    def test_the_span_one_cut_takes_the_base_levels_reserved_segment_by_index(self, monkeypatch):
        # Level 1 of the lift of (5, 2, 3, 4, 1) takes the classes of 00011
        # and 00101 whole and no coset block, so the reserved class is
        # segment 0. With the two swapped, the cut lands on the class of
        # 00101, and the plan check refuses the plan.
        plan = reconstruct._plan_regular

        def swapped(inst):
            segments, levels = plan(inst)
            assert [word for word, _ in segments] == ["00011", "00101"]
            assert (levels[0].full_words, levels[0].partial_blocks) == (2, 0)
            return segments[1::-1] + segments[2:], levels

        monkeypatch.setattr(reconstruct, "_plan_regular", swapped)
        inst = SpanOneInstance(5, 2, 3, 4, 1)
        with pytest.raises(ConstructionInvariantError) as info:
            rec_span_one_with_plan(inst)
        assert str(info.value) == f"built parallel edges of {inst}"


class _Counted:
    """A word stream that records how many words the plan asks of it."""

    def __init__(self, length, density):
        self.length, self.density, self.asked = length, density, None

    def first(self, k):
        self.asked = k
        return gen_lyndon(self.length, self.density).first(k)


class TestRecRegularSweep:
    def test_all_feasible_instances_verify(self):
        for inst in feasible_regular_instances(10):
            matrix = rec_regular_with_plan(inst).matrix
            assert verify(matrix, inst).ok, inst
            if inst.h:
                # realize reads its edges off the plan, not off these rows.
                realized = realize((inst.v,) * inst.n, inst.h).hypergraph
                assert realized.edges == from_incidence(matrix).edges, inst

    def test_determinism(self):
        inst = RegularInstance(10, 36, 5, 18)
        assert rec_regular_with_plan(inst).matrix == rec_regular_with_plan(inst).matrix

    def test_each_level_pulls_exactly_the_words_it_uses(self, monkeypatch):
        # A level pulls the words of its full classes and, when it fills with
        # coset blocks, the reserved word it skips: no word goes unused.
        streams = []

        def spy(length, density):
            streams.append(_Counted(length, density))
            return streams[-1]

        monkeypatch.setattr(reconstruct, "gen_lyndon", spy)
        for inst in chain(feasible_regular_instances(12), feasible_span_one_instances(12)):
            streams.clear()
            levels = reconstruct._BUILDERS[type(inst)](inst).levels
            used = [(l.length, l.density, l.full_words + (l.partial_blocks > 0)) for l in levels]
            assert [(s.length, s.density, s.asked) for s in streams] == used, inst

    def test_at_most_one_partial_fill_level(self):
        for inst in feasible_regular_instances(9):
            built = rec_regular_with_plan(inst)
            filled = [l for l in built.levels if l.partial_blocks]
            assert len(filled) <= 1
            if filled:
                assert filled[0] is built.levels[-1]

    def test_level_accounting_matches_instance(self):
        for inst in feasible_regular_instances(9):
            built = rec_regular_with_plan(inst)
            if inst.h in (0, inst.n):
                continue
            g = math.gcd(inst.n, inst.h)
            consumed = sum(l.full_words * l.density for l in built.levels) + sum(
                l.partial_blocks * (inst.h // g) for l in built.levels
            )
            rows = sum(l.full_words * l.length for l in built.levels) + sum(
                l.partial_blocks * (inst.n // g) for l in built.levels
            )
            assert consumed == inst.v
            assert rows == inst.m


class TestRecSpanOneWorkedExamples:
    def test_9_3_5_lift_and_delete(self):
        built = rec_span_one_with_plan(SpanOneInstance(9, 3, 5, 3, 6))
        assert built.lifted_ones == 45
        assert built.lifted_rows == 15
        assert built.lifted_degree == 5
        assert built.rows_deleted == 2
        assert built.matrix.nrows == 13
        assert built.matrix.col_sums() == (5, 5, 5, 4, 4, 4, 4, 4, 4)
        assert verify(built.matrix, built.instance).ok

    def test_6_3_2_golden(self):
        built = rec_span_one_with_plan(SpanOneInstance(6, 3, 2, 3, 3))
        assert built.lifted_ones == 12
        assert built.lifted_degree == 2
        assert built.rows_deleted == 1
        assert built.matrix.rows == ("111000", "100011", "011100")
        assert built.matrix.col_sums() == (2, 2, 2, 1, 1, 1)

    def test_4_2_2_deletes_from_full_class(self):
        built = rec_span_one_with_plan(SpanOneInstance(4, 2, 2, 2, 2))
        assert built.lifted_ones == 8
        assert built.lifted_degree == 2
        assert built.rows_deleted == 1
        assert built.matrix.rows == ("0110", "1100", "1001")
        assert built.matrix.col_sums() == (2, 2, 1, 1)

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            rec_span_one_with_plan(SpanOneInstance(4, 2, 3, 3, 1))
        with pytest.raises(ValueError):
            rec_span_one_with_plan(SpanOneInstance(4, 2, 4, 2, 2))


class TestRecSpanOneSweep:
    def test_all_feasible_instances_verify(self):
        for inst in feasible_span_one_instances(8):
            built = rec_span_one_with_plan(inst)
            assert verify(built.matrix, inst).ok, inst
            realized = realize(inst.degree_vector(), inst.h).hypergraph
            assert realized.edges == from_incidence(built.matrix).edges, inst
            # columns come out ordered by descending sum
            sums = built.matrix.col_sums()
            assert sums == tuple(sorted(sums, reverse=True))

    def test_columns_already_descend(self):
        # The deleted rows lower exactly the last n1 columns one step further
        # than the rest, so the construction never needs to permute columns:
        # vertex j of the edges has the j-th degree of the nonincreasing vector.
        for inst in feasible_span_one_instances(16, max_v=8):
            built = rec_span_one_with_plan(inst)
            sums = Counter(chain.from_iterable(built.edges))
            assert tuple(sums[j] for j in range(1, inst.n + 1)) == inst.degree_vector(), inst
            assert built.matrix.col_sums() == (inst.v,) * inst.n0 + (inst.v - 1,) * inst.n1, inst
            assert verify(built.matrix, inst).ok, inst

    def test_deletion_stays_inside_one_block(self):
        for inst in feasible_span_one_instances(8):
            built = rec_span_one_with_plan(inst)
            assert 1 <= built.rows_deleted < inst.n // math.gcd(inst.n, inst.h)

    def test_the_cut_takes_the_reserved_words_first_shifts_by_h(self):
        # The span-one plan cuts one segment, the one whose word is
        # 0^(n-h) 1^h, by its shifts j*h mod n for j < deleted.
        for inst in feasible_span_one_instances(12):
            n, h = inst.n, inst.h
            lifted = reconstruct._lifted(inst)
            segments, levels = reconstruct._plan_regular(lifted)
            deleted = lifted.m - inst.m
            holding = [shifts for word, shifts in segments if word == "0" * (n - h) + "1" * h]
            assert len(holding) == 1, inst
            doomed = [j * h % n for j in range(deleted)]
            assert set(doomed) <= set(holding[0]), inst
            if levels[0].partial_blocks:
                # The reserved word is coset block 0 of the base level.
                assert list(holding[0][:deleted]) == doomed, inst
            _, cut, _ = reconstruct._plan_span_one(inst)
            rows = sum(len(shifts) for _, shifts in segments)
            assert rows - sum(len(shifts) for _, shifts in cut) == deleted, inst

    def test_determinism(self):
        inst = SpanOneInstance(8, 3, 6, 5, 3)
        assert rec_span_one_with_plan(inst).matrix == rec_span_one_with_plan(inst).matrix

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_feasible_instance_lifts_to_a_feasible_regular_one(self, data):
        # The lift is built without a check of its own, so it must be
        # feasible: lcm(n, h) divides h*C(n, h), which is at least n*v > h*m.
        # Half the draws sit at the capacity bound, where the lift has the
        # least room.
        n = data.draw(st.integers(2, 80), "n")
        h = data.draw(st.integers(1, n - 1), "h")
        top = h * binomial(n, h) // n  # the largest v capacity allows
        v = data.draw(
            st.one_of(st.integers(1, min(top, 60)), st.integers(max(1, top - 3), top)), "v"
        )
        n1_values = [n1 for n1 in range(1, n) if (n * v - n1) % h == 0]
        assume(n1_values)
        n1 = data.draw(st.sampled_from(n1_values), "n1")
        inst = SpanOneInstance(n, h, v, n - n1, n1)
        assume(check_span_one(inst).feasible)
        lifted = reconstruct._lifted(inst)
        assert check_regular(lifted).feasible, (inst, lifted)
        assert 0 < lifted.m - inst.m < n // math.gcd(n, h)

    def test_the_lift_is_not_checked_again(self, monkeypatch):
        def check_regular(inst):
            raise AssertionError(f"re-checked {inst}")

        monkeypatch.setattr(reconstruct, "check_regular", check_regular)
        inst = SpanOneInstance(9, 3, 5, 3, 6)
        assert verify(rec_span_one_with_plan(inst).matrix, inst).ok


class TestVerify:
    def test_accepts_construction_output(self):
        inst = RegularInstance(6, 15, 2, 5)
        assert verify(rec_regular_with_plan(inst).matrix, inst).ok

    def test_reports_first_failing_property(self):
        inst = RegularInstance(4, 2, 2, 1)
        assert verify(BinaryMatrix(("0011", "0011"), 4), inst).problem == "duplicate rows"
        assert verify(BinaryMatrix(("0011", "0111"), 4), inst).problem == "row sum"
        assert verify(BinaryMatrix(("0011", "0101"), 4), inst).problem == "column sum"
        assert verify(BinaryMatrix(("0011",), 4), inst).problem == "shape"

    def test_flipped_bit_is_caught(self):
        inst = RegularInstance(6, 15, 2, 5)
        rows = list(rec_regular_with_plan(inst).matrix.rows)
        rows[3] = rows[3].replace("1", "0", 1)
        assert verify(BinaryMatrix(tuple(rows), 6), inst).problem == "row sum"

    def test_span_one_column_multiset(self):
        inst = SpanOneInstance(4, 2, 2, 2, 2)
        assert verify(BinaryMatrix(("0110", "1100", "1001"), 4), inst).ok
        # column order is free, so a permuted-column witness still passes
        assert verify(BinaryMatrix(("0110", "1010", "0101"), 4), inst).ok
        assert verify(BinaryMatrix(("0011", "0101", "0110"), 4), inst).problem == "column sum"

    def test_non_integral_instance_fails_shape(self):
        # Every instance with n <= 8, h <= n + 1 and v <= 7 whose ones h does
        # not divide (m is None): matrices of n columns with either row count
        # next to ones / h, their rows of min(h, n) ones, answer `shape`, and
        # so does each against no instance, as a regular sequence with no
        # integral row count has.
        seen = 0
        for n in range(2, 9):
            for h, v, n0 in product(range(1, n + 2), range(1, 8), range(1, n)):
                inst = SpanOneInstance(n, h, v, n0, n - n0)
                if inst.m is not None:
                    continue
                seen += 1
                rows = ["".join(r) for r in product("01", repeat=n) if r.count("1") == min(h, n)]
                for m in (inst.ones_total // h, inst.ones_total // h + 1):
                    matrix = BinaryMatrix(tuple(islice(cycle(rows), m)), n)
                    assert verify(matrix, inst) == VerifyResult(False, "shape"), (inst, m)
                    assert verify(matrix, None) == VerifyResult(False, "shape"), m
        assert seen == 930

    def test_reading_by_ones_and_by_cells_agree(self, monkeypatch):
        # Built witnesses, each with up to three rows replaced: by a copy of
        # another row, by a row of fewer or of more than h ones (two equal
        # such rows, too), or by another row of h ones, which moves the column
        # sums. Each matrix is verified once through each pass, forced by the
        # selection constant.
        rng = random.Random(16)
        instances = [inst for inst in feasible_regular_instances(9) if inst.h and inst.m > 1]
        instances += feasible_span_one_instances(9, max_v=6)

        def row_of(n, count):
            ones = set(rng.sample(range(n), count))
            return "".join("1" if j in ones else "0" for j in range(n))

        seen = Counter()
        for _ in range(1500):
            inst = rng.choice(instances)
            n, h = inst.n, inst.h
            rows = list(_BUILDERS[type(inst)](inst).matrix.rows)
            for _ in range(rng.randrange(4)):
                i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
                change = rng.choice(("copy", "fewer", "more", "more twice", "moved"))
                if change == "copy":
                    rows[i] = rows[j]
                elif change == "fewer":
                    rows[i] = row_of(n, rng.randrange(h))
                elif change == "moved":
                    rows[i] = row_of(n, h)
                elif h < n:
                    rows[i] = rows[j] = row_of(n, rng.randint(h + 1, n))
                    if change == "more":
                        rows[j] = row_of(n, rng.randint(h + 1, n))
            matrix = BinaryMatrix(tuple(rows), n)
            monkeypatch.setattr(reconstruct, "_SPARSE", 0)
            by_ones = verify(matrix, inst)
            monkeypatch.setattr(reconstruct, "_SPARSE", n + 1)
            assert verify(matrix, inst) == by_ones, (inst, rows)
            seen[by_ones.problem] += 1
        assert set(seen) == {None, "duplicate rows", "row sum", "column sum"}, seen

    def test_both_readers_give_the_naive_verdict_on_every_small_matrix(self, monkeypatch):
        # Every instance with n <= 4 and m <= 3, regular (any h <= n, v <= m)
        # and span-one (h <= n + 1, v <= 3, m integral), against every m-tuple of
        # words of length n: matrices failing several properties at once,
        # where the order of the checks decides the verdict. Each is verified
        # through each reader, forced by the selection constant (h = 0 is
        # always read by its ones), and must give the verdict of a naive
        # check of shape, distinct rows, row sums and column sums, in order.
        def naive(rows, inst):
            if len(rows) != inst.m:
                return "shape"
            if len(set(rows)) != len(rows):
                return "duplicate rows"
            if any(row.count("1") != inst.h for row in rows):
                return "row sum"
            sums = [sum(row[j] == "1" for row in rows) for j in range(inst.n)]
            if tuple(sorted(sums, reverse=True)) != inst.degree_vector():
                return "column sum"
            return None

        instances = [
            RegularInstance(n, m, h, v)
            for n in range(1, 5)
            for m in range(4)
            for h in range(n + 1)
            for v in range(m + 1)
        ]
        instances += [
            inst
            for n in range(2, 5)
            for h, v, n0 in product(range(1, n + 2), range(1, 4), range(1, n))
            for inst in [SpanOneInstance(n, h, v, n0, n - n0)]
            if inst.m in range(4)
        ]
        cases = [
            (inst, BinaryMatrix(rows, inst.n), naive(rows, inst))
            for inst in instances
            for rows in product(["".join(w) for w in product("01", repeat=inst.n)], repeat=inst.m)
        ]
        for sparse in (0, 5):
            monkeypatch.setattr(reconstruct, "_SPARSE", sparse)
            for inst, matrix, problem in cases:
                assert verify(matrix, inst).problem == problem, (inst, matrix.rows, sparse)
        seen = Counter(problem for _, _, problem in cases)
        assert set(seen) == {None, "duplicate rows", "row sum", "column sum"}, seen
        assert len(instances) == 159 and len(cases) == 109398


class TestTwinFreeBipartite:
    def test_documented_cases(self):
        assert set(twin_free_bipartite(4, 2).rows) == {"0011", "0110", "1100", "1001"}
        assert twin_free_bipartite(3, 1).rows == ("001", "010", "100")
        with pytest.raises(ValueError):
            twin_free_bipartite(4, 4)
        with pytest.raises(ValueError):
            twin_free_bipartite(4, 0)

    def test_symmetric_twin_free_sweep(self):
        for n in range(2, 13):
            for k in range(1, n):
                matrix = twin_free_bipartite(n, k)
                assert matrix.nrows == n
                assert matrix.transpose() == matrix
                assert set(matrix.row_sums()) == {k}
                assert set(matrix.col_sums()) == {k}
                assert len(set(matrix.rows)) == n
                assert len(set(matrix.transpose().rows)) == n


def _naive_edges(segments):
    """Each row's one-positions, read off the rotated string itself."""
    return tuple(
        tuple(i for i, symbol in enumerate(word[k:] + word[:k], 1) if symbol == "1")
        for word, shifts in segments
        for k in shifts
    )


@st.composite
def _segment(draw):
    """A word of length <= 300 at any density, tiled up to three times
    within that length, with shifts given as the full range, a range from a
    later start, a list in any order, or every step-th shift from a start,
    as coset blocks list them."""
    length = draw(st.integers(1, 300))
    density = draw(st.integers(0, length))
    ones = set(draw(st.permutations(range(length)))[:density])
    tiles = draw(st.integers(1, min(3, 300 // length)))
    word = "".join("1" if i in ones else "0" for i in range(length)) * tiles
    n = len(word)
    kind = draw(st.sampled_from(["full", "from", "list", "coset"]))
    if kind == "full":
        return word, range(n)
    if kind == "from":
        first = draw(st.integers(1, n))
        return word, range(first, draw(st.integers(first, n)))
    if kind == "coset":
        step = draw(st.integers(1, n))
        return word, list(range(draw(st.integers(0, step - 1)), n, step))
    return word, draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))


_RUN = reconstruct._RUN


def _spaced(n):
    """A word of length n with its ones _RUN - 1 apart: its range of shifts
    walks in runs one row short of `zip`."""
    return (("1" + "0" * (_RUN - 2)) * n)[:n]


class TestEdgesFromPlan:
    @settings(max_examples=200, deadline=None)
    @given(segments=st.lists(_segment(), max_size=3))
    # Runs one row shorter than the zip threshold, exactly at it, and longer.
    @example(segments=[("0" * (r - 1) + "1", range(r)) for r in (_RUN - 1, _RUN, _RUN + 1)])
    @example(segments=[("0" * (_RUN - 1) + "1" + "0" * _RUN + "11", range(2, 2 * _RUN + 2))])
    @example(segments=[("0000000", range(7)), ("0000000", [3, 1])])  # h = 0
    @example(segments=[("11111", range(5)), ("11111", range(1, 3))])  # h = n
    @example(segments=[("000111" * 3, [0, 3, 6]), ("001" * 9, range(3))])
    # The longest words whose rows are translated as bytes, and the shortest
    # that are not: runs one row short of zip, and every shift listed.
    @example(segments=[(_spaced(255), range(255)), (_spaced(255), list(range(254, -1, -1)))])
    @example(segments=[(_spaced(256), range(256)), (_spaced(256), list(range(255, -1, -1)))])
    def test_edges_are_the_one_positions_of_each_rotated_row(self, segments):
        assert reconstruct._edges(segments) == _naive_edges(segments)

    @pytest.mark.parametrize(
        "inst",
        [
            RegularInstance(255, 900, 85, 300),
            RegularInstance(256, 800, 64, 200),
            RegularInstance(300, 420, 5, 7),
            SpanOneInstance(300, 7, 2, 295, 5),
            RegularInstance(600, 800, 3, 4),
        ],
        ids=["class-n255", "class-n256", "fill-n300", "cut-n300", "runs-n600"],
    )
    def test_edges_of_a_built_witness_are_the_one_positions_of_its_rows(self, inst):
        # Plans the n <= 14 sweeps never reach: the last word length read
        # through the byte tables, the first that is not, and words longer
        # than 255 with listed shifts (the coset fill and the span-one cut)
        # and long runs. The rows are rendered apart from `_edges`.
        built = _BUILDERS[type(inst)](inst)
        assert verify(built.matrix, inst)
        assert built.edges == tuple(
            tuple(i for i, c in enumerate(row, 1) if c == "1") for row in built.matrix.rows
        )

    def test_each_table_subtracts_its_shift_exactly(self):
        # At shift j < n of a word with n <= 255, a row's one-positions p lie
        # in j+1 .. j+n and are packed as p mod 256; the table gives p - j.
        for j in range(255):
            packed = bytes([p & 255 for p in range(j + 1, j + 256)])
            assert packed.translate(reconstruct._MINUS[j]) == bytes(range(1, 256))


def _boundary_instances(seed):
    """Regular and span-one instances with n on both sides of the word
    lengths where `_edges` changes how it builds rows (128, 256) and h on
    both sides of 128, about 400 rows each, their degrees drawn by `seed`;
    then three with a tiled level: (15, 3) and (126, 2) take the last Lyndon
    words of the base level and one class of a level above it, and (128, 2)
    the same past the batch."""
    rng = random.Random(seed)
    for n in (15, 127, 128, 255, 256, 300):
        for h in sorted({2, n // 2, 128, 129} & set(range(1, n))):
            step = h // math.gcd(n, h)
            v = step * rng.randint(1, max(1, min(binomial(n - 1, h - 1), 400 * h // n) // step))
            yield RegularInstance(n, n * v // h, h, v)
            v = rng.randint(1, max(1, 400 * h // n))
            # n1 = n*v mod h, moved up by whole multiples of h, keeps h*m = n*v - n1.
            n1 = (n * v - 1) % h + 1
            n1 += h * rng.randint(0, (n - 1 - n1) // h)
            yield SpanOneInstance(n, h, v, n - n1, n1)
    yield RegularInstance(15, 455, 3, 91)
    yield RegularInstance(126, 7875, 2, 125)
    yield RegularInstance(128, 8128, 2, 127)


class TestEdgesAtTheByteBounds:
    @pytest.mark.parametrize("n", [127, 128])
    def test_words_on_each_side_of_the_batch_give_the_rotated_rows(self, n):
        # The longest words whose rows are batched and the shortest that are
        # walked: runs one row short of zip, and words of h spread ones with
        # a range from a later start and every shift listed.
        for h in (1, 2, n // 2, n - 1, n):
            word = "".join("1" if i * h % n < h else "0" for i in range(n))
            segments = [(_spaced(n), range(n)), (word, range(n // 3, n)), (word, range(n)[::-1])]
            assert reconstruct._edges(segments) == _naive_edges(segments)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_edges_are_the_one_positions_of_each_built_row(self, seed):
        # The rows are rendered apart from `_edges`, from the same plan.
        shapes = Counter()
        for inst in _boundary_instances(seed):
            if isinstance(inst, SpanOneInstance) and not check_span_one(inst).feasible:
                continue
            built = _BUILDERS[type(inst)](inst)
            rows = built.matrix.rows
            assert built.edges == tuple(
                tuple(i for i, c in enumerate(row, 1) if c == "1") for row in rows
            ), inst
            shapes["span-one cut"] += isinstance(inst, SpanOneInstance)
            shapes["coset fill"] += any(level.partial_blocks for level in built.levels)
            shapes["tiled level"] += any(
                level.divisor > 1 and level.full_words for level in built.levels
            )
            shapes[inst.n] += 1
        assert min(shapes[shape] for shape in ("span-one cut", "coset fill", "tiled level")) >= 1
        assert all(shapes[n] >= 2 for n in (15, 127, 128, 255, 256, 300)), shapes


class TestRowBlocks:
    @pytest.mark.parametrize(
        "inst",
        [
            RegularInstance(9, 15, 3, 5),
            RegularInstance(300, 420, 5, 7),
            RegularInstance(787, 787, 2, 2),
            SpanOneInstance(600, 3, 3, 597, 3),
            RegularInstance(70_000, 1, 70_000, 1),
        ],
        ids=["one-block", "fill-n300", "class-n787", "cut-n600", "one-wide-row"],
    )
    def test_blocks_hold_at_most_2_16_symbols_and_join_to_the_matrix(self, inst):
        built = _BUILDERS[type(inst)](inst)
        cap = max(1, 2**16 // inst.n)
        blocks = list(built.row_blocks())
        assert all(0 < len(block) <= cap for block in blocks)
        assert tuple(chain.from_iterable(blocks)) == built.matrix.rows
