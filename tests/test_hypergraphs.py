import inspect
import math
from collections import Counter
from itertools import chain, combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperdeg import reconstruct
from hyperdeg.feasibility import (
    RegularInstance,
    SpanOneInstance,
    check_degree_sequence,
    erdos_gallai_check,
)
from hyperdeg.hypergraphs import (
    Hypergraph,
    degree_sequence,
    from_incidence,
    realize,
    to_incidence,
)
from hyperdeg.reconstruct import (
    ConstructionInvariantError,
    rec_regular_with_plan,
    rec_span_one_with_plan,
)
from hyperdeg.words import BinaryMatrix


class TestHypergraphType:
    def test_normalizes_and_validates(self):
        hg = Hypergraph(4, ((3, 1), (2, 4)))
        assert hg.edges == ((1, 3), (2, 4))

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="^parallel edges are not allowed$"):
            Hypergraph(3, ((1, 2), (1, 2)))
        with pytest.raises(ValueError, match="^all edges must have the same size$"):
            Hypergraph(3, ((1, 2), (1, 2, 3)))
        with pytest.raises(ValueError, match=r"^vertex index out of range in edge \(0, 1\)$"):
            Hypergraph(3, ((0, 1),))
        with pytest.raises(ValueError, match=r"^vertex index out of range in edge \(3, 4\)$"):
            Hypergraph(3, ((3, 4),))
        with pytest.raises(ValueError, match=r"^edge repeats a vertex: \(1, 1\)$"):
            Hypergraph(3, ((1, 1),))
        with pytest.raises(ValueError, match="^edges must be nonempty$"):
            Hypergraph(3, ((),))
        with pytest.raises(ValueError, match=r"^vertex count must be an integer, got 2\.5$"):
            Hypergraph(2.5, ((1, 2),))
        with pytest.raises(ValueError, match=r"^vertices must be integers, got 1\.5$"):
            Hypergraph(3, ((1.5, 2),))


class TestIncidenceConversions:
    def test_from_incidence_examples(self):
        hg = from_incidence(BinaryMatrix(("0011", "1100"), 4))
        assert hg.edges == ((3, 4), (1, 2))
        assert from_incidence(BinaryMatrix(("111",), 3)).edges == ((1, 2, 3),)

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError):
            from_incidence(BinaryMatrix(("01", "01"), 2))

    @pytest.mark.parametrize(
        "rows,message",
        [
            (("0110", "0111"), "same size"),
            (("000", "000"), "nonempty"),
            (("000",), "nonempty"),
            (("0110", "1001", "0110"), "parallel"),
        ],
    )
    def test_rejects_rows_that_give_bad_edges(self, rows, message):
        with pytest.raises(ValueError, match=message):
            from_incidence(BinaryMatrix(rows, len(rows[0])))

    def test_rec_output_is_complete_graph(self):
        hg = from_incidence(rec_regular_with_plan(RegularInstance(6, 15, 2, 5)).matrix)
        assert set(hg.edges) == set(combinations(range(1, 7), 2))
        assert degree_sequence(hg) == (5,) * 6

    def test_round_trips(self):
        for rows in [("0011", "1100"), ("110", "011", "101"), ("1110", "1101")]:
            matrix = BinaryMatrix(rows, len(rows[0]))
            assert to_incidence(from_incidence(matrix)) == matrix
        hg = Hypergraph(4, ((1, 2),))
        assert from_incidence(to_incidence(hg)) == hg
        assert to_incidence(hg).rows == ("1100",)

    @given(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda n: st.integers(min_value=1, max_value=n).flatmap(
                lambda k: st.tuples(
                    st.just(n),
                    st.sets(
                        st.frozensets(
                            st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k
                        ),
                        max_size=20,
                    ),
                )
            )
        )
    )
    def test_from_incidence_matches_per_character_definition(self, case):
        # Equal-size nonempty edges; k = n gives the all-ones row, an empty
        # set the matrix with no rows.
        n, supports = case
        rows = tuple(
            "".join("1" if j in support else "0" for j in range(n))
            for support in sorted(supports, key=sorted)
        )
        expected = tuple(
            tuple(j + 1 for j, ch in enumerate(row) if ch == "1") for row in rows
        )
        hg = from_incidence(BinaryMatrix(rows, n))
        assert hg.edges == expected
        assert hg == Hypergraph(n, expected)

    def test_empty_hypergraph(self):
        hg = Hypergraph(3, ())
        assert to_incidence(hg) == BinaryMatrix((), 3)
        assert degree_sequence(hg) == (0, 0, 0)


class TestDegreeSequence:
    def test_examples(self):
        assert degree_sequence(Hypergraph(3, ((1, 2), (1, 3)))) == (2, 1, 1)
        span = from_incidence(rec_span_one_with_plan(SpanOneInstance(9, 3, 5, 3, 6)).matrix)
        assert degree_sequence(span) == (5, 5, 5, 4, 4, 4, 4, 4, 4)


def _witness_problem(edges, n, h, degrees):
    """What keeps `edges` from being an h-uniform hypergraph on 1..n with no
    parallel edges and the degree multiset `degrees`, or None. It shares no
    code with the package: each edge is checked as a tuple on its own."""
    if len(edges) * h != sum(degrees):
        return f"{len(edges)} edges for {sum(degrees)} incidences"
    if len(set(edges)) != len(edges):
        return "parallel edges"
    for edge in edges:
        if type(edge) is not tuple or len(edge) != h:
            return f"edge {edge!r} is no {h}-tuple"
        if edge[0] < 1 or edge[-1] > n or any(a >= b for a, b in zip(edge, edge[1:])):
            return f"edge {edge!r} does not increase strictly inside 1..{n}"
    counts = Counter(chain.from_iterable(edges))
    if sorted(counts[vertex] for vertex in range(1, n + 1)) != sorted(degrees):
        return "degrees differ"
    return None


@st.composite
def _large_sequences(draw):
    """(degrees, h) of m edges of size h in 3..8 on n in 60..900 vertices,
    m * n <= 2 * 10^5: regular when n divides h*m, span-one otherwise. Where
    a regular m fits, half the draws take one; most n lie past 255."""
    n = draw(st.integers(min_value=60, max_value=900))
    h = draw(st.integers(min_value=3, max_value=8))
    rows = 200_000 // n
    unit = n // math.gcd(n, h)  # every regular row count is a multiple of it
    if unit <= rows and draw(st.booleans()):
        m = unit * draw(st.integers(min_value=1, max_value=rows // unit))
    else:
        m = draw(st.integers(min_value=1, max_value=rows))
    v = -(-h * m // n)
    n1 = n * v - h * m
    return (v,) * (n - n1) + (v - 1,) * n1, h


class TestRealize:
    def test_regular_example(self):
        result = realize((5, 5, 5, 5, 5, 5), 2)
        assert result.status == "realized"
        assert len(result.hypergraph.edges) == 15
        assert degree_sequence(result.hypergraph) == (5,) * 6

    def test_span_one_example(self):
        result = realize((5, 5, 5, 4, 4, 4, 4, 4, 4), 3)
        assert result.status == "realized"
        assert len(result.hypergraph.edges) == 13
        assert all(len(e) == 3 for e in result.hypergraph.edges)
        assert degree_sequence(result.hypergraph) == (5, 5, 5, 4, 4, 4, 4, 4, 4)

    def test_unsupported_span(self):
        result = realize((4, 2, 2), 2)
        assert result.status == "unsupported"
        assert result.reason == "span>1"
        assert result.hypergraph is None

    def test_infeasible_reports_condition(self):
        result = realize((6,) * 6, 2)
        assert result.status == "infeasible"
        assert result.feasibility.violated == "cond3"
        result = realize((1, 1, 1), 2)
        assert result.status == "infeasible"
        assert result.feasibility.violated == "integrality"

    def test_zero_sequence_gives_empty_hypergraph(self):
        result = realize((0, 0, 0), 3)
        assert result.status == "realized"
        assert result.hypergraph.edges == ()

    def test_input_order_does_not_matter(self):
        shuffled = realize((4, 5, 4, 4, 5, 4, 4, 5, 4), 3)
        sorted_input = realize((5, 5, 5, 4, 4, 4, 4, 4, 4), 3)
        assert shuffled == sorted_input

    def test_round_trip_sweep(self):
        cases = [
            ((3, 3, 3, 3), 2),
            ((2, 2, 2, 2, 2), 2),
            ((3, 3, 3, 2, 2, 2), 3),
            ((4, 4, 3, 3, 3, 3), 2),
            ((1, 1, 1, 1), 2),
        ]
        for degrees, h in cases:
            result = realize(degrees, h)
            assert result.status == "realized", (degrees, h)
            assert degree_sequence(result.hypergraph) == tuple(
                sorted(degrees, reverse=True)
            )
            assert all(len(e) == h for e in result.hypergraph.edges)
            assert len(set(result.hypergraph.edges)) == len(result.hypergraph.edges)

    # Witnesses stay near 4*10^5 cells, and n stays below the depth at which
    # the recursive Lyndon generator overflows the interpreter stack.
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=900).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.one_of(
                    st.integers(min_value=0, max_value=max(1, 800_000 // (n * n))),
                    st.integers(min_value=n, max_value=n + 1),
                ),
                st.integers(min_value=0, max_value=n - 1),
            )
        )
    )
    @example((900, 1, 0))
    @example((900, 2, 450))
    @example((1, 0, 0))
    def test_graphs_agree_with_erdos_gallai(self, case):
        n, v, n1 = case
        if v == 0:
            n1 = 0
        degrees = (v,) * (n - n1) + (v - 1,) * n1
        feasible = check_degree_sequence(degrees, 2).result.feasible
        assert feasible == erdos_gallai_check(degrees)
        if feasible:
            assert degree_sequence(realize(degrees, 2).hypergraph) == degrees

    # h-uniform sequences of m edges on n vertices: regular when n divides
    # h*m, span-one otherwise; at most 10^5 cells.
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=300).flatmap(
            lambda n: st.integers(min_value=1, max_value=n - 1).flatmap(
                lambda h: st.integers(
                    min_value=1, max_value=min(math.comb(n, h), 100_000 // n)
                ).map(lambda m: (n, h, m))
            )
        )
    )
    @example((4, 2, 1))  # degrees (1, 1, 0, 0): span-one deletes from a coset block
    @example((3, 2, 2))  # degrees (2, 1, 1): span-one deletes from the reserved class
    def test_edges_match_the_matrix_construction(self, case):
        n, h, m = case
        v = -(-h * m // n)
        n1 = n * v - h * m
        degrees = (v,) * (n - n1) + (v - 1,) * n1
        check = check_degree_sequence(degrees, h)
        assume(check.result.feasible)
        build = rec_regular_with_plan if n1 == 0 else rec_span_one_with_plan
        built = build(check.instance)
        assert built.edges == from_incidence(built.matrix).edges
        assert realize(degrees, h).hypergraph.edges == built.edges

    # Past the n <= 14 sweeps: rows of words longer than 255 take the
    # per-vertex builder, and coset fills and the span-one cut list their
    # shifts. n stays below the recursion limit of Lyndon generation.
    @settings(max_examples=700, deadline=None)
    @given(_large_sequences())
    @example(((7,) * 300, 5))  # a coset fill of a word of length 300
    @example(((2,) * 876 + (1,) * 24, 8))  # a span-one cut at n = 900
    def test_large_witnesses_pass_an_independent_check(self, case):
        degrees, h = case
        result = realize(degrees, h)
        assert result.status == "realized"
        assert _witness_problem(result.hypergraph.edges, len(degrees), h, degrees) is None

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            realize((2, 2), 0)
        with pytest.raises(ValueError):
            realize((), 2)

    @pytest.mark.parametrize(
        "degrees, bad",
        [((2.5,) * 4, "2.5"), ((2, 2, 2.0, 2), "2.0"), ((3, 3, "3", 3), "'3'")],
    )
    def test_refuses_degrees_that_are_no_integers(self, degrees, bad):
        # int() would truncate 2.5 to 2 and realize (2, 2, 2, 2) instead.
        with pytest.raises(ValueError, match=f"degrees must be integers, got {bad}$"):
            realize(degrees, 2)


class TestRealizeChecks:
    """The construction checks its plan once and reads its edges off it,
    without a matrix; a faulty plan must still be caught before any edge is
    read."""

    def test_plan_missing_the_degree_vector(self, monkeypatch):
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
        with pytest.raises(ConstructionInvariantError, match="column sums missed"):
            realize((5, 5, 5, 4, 4, 4, 4, 4, 4), 3)

    def test_duplicated_segment_gives_parallel_edges(self, monkeypatch):
        plan = reconstruct._plan_regular

        def doubled_plan(inst):
            # The first class in place of the second: as many rows, six repeated.
            segments, levels = plan(inst)
            return segments[:1] * 2 + segments[2:], levels

        monkeypatch.setattr(reconstruct, "_plan_regular", doubled_plan)
        with pytest.raises(ConstructionInvariantError, match="parallel"):
            realize((5,) * 6, 2)

    def test_realize_renders_no_rows(self, monkeypatch):
        def no_rows(word, shifts):
            raise AssertionError("realize rendered '0'/'1' rows")

        monkeypatch.setattr(reconstruct, "_rotations", no_rows)
        assert realize((5,) * 6, 2).status == "realized"
        assert realize((5, 5, 5, 4, 4, 4, 4, 4, 4), 3).status == "realized"

    @pytest.mark.parametrize(
        "degrees, h", [((5,) * 6, 2), ((5, 5, 5, 4, 4, 4, 4, 4, 4), 3)], ids=["regular", "span-one"]
    )
    def test_lyndon_generation_runs_as_deep_as_on_the_matrix_path(self, monkeypatch, degrees, h):
        # The benchmark's traced replay of realize calls rec_*_with_plan two
        # frames below its op, as through_matrix does here; realize must reach
        # gen_lyndon as deep, or the Lyndon recursion would hit the
        # interpreter's limit at other sizes in plain and traced runs.
        depths = []
        real = reconstruct.gen_lyndon

        def gen_lyndon(n, d):
            depths.append(len(inspect.stack(0)))
            return real(n, d)

        def through_matrix(degrees, h):
            return from_incidence(build(check_degree_sequence(degrees, h).instance).matrix)

        def build(instance):
            if isinstance(instance, RegularInstance):
                return rec_regular_with_plan(instance)
            return rec_span_one_with_plan(instance)

        monkeypatch.setattr(reconstruct, "gen_lyndon", gen_lyndon)
        realize(degrees, h)
        plain = list(depths)
        depths.clear()
        through_matrix(degrees, h)
        assert plain and plain == depths
