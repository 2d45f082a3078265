"""The value behaviour of the twelve record types: construction, defaults,
equality and hashing, repr, immutability, pickling and copying, JSON dicts and
pattern matching. Each type is pinned by one example value and the exact
repr it prints."""

import copy
import pickle

import pytest

from hyperdeg import cli, words
from hyperdeg.feasibility import DegreeCheck, Feasibility, RegularInstance, SpanOneInstance
from hyperdeg.hypergraphs import Hypergraph, RealizationResult, to_incidence
from hyperdeg.oracle import OracleResult, exists_distinct_rows
from hyperdeg.reconstruct import (
    LevelPlan,
    RegularReconstruction,
    SpanOneReconstruction,
    VerifyResult,
    rec_regular_with_plan,
    rec_span_one_with_plan,
)
from hyperdeg.words import BinaryMatrix

REGULAR = RegularInstance(6, 15, 2, 5)
SPAN_ONE = SpanOneInstance(9, 3, 5, 3, 6)
FEASIBLE = Feasibility(True, None, 15)
LEVELS = (LevelPlan(1, 6, 2, 2, 0), LevelPlan(2, 3, 1, 1, 0))
MATRIX = BinaryMatrix(("011", "110"), 3)
HYPERGRAPH = Hypergraph(3, ((2, 3), (1, 2)))
REGULAR_BUILT = rec_regular_with_plan(REGULAR)
SPAN_ONE_BUILT = rec_span_one_with_plan(SPAN_ONE)

# Per type: its constructor's parameters in order, the arguments of one value
# and the exact repr of that value.
CASES = {
    "RegularInstance": (
        RegularInstance,
        ("n", "m", "h", "v"),
        (6, 15, 2, 5),
        "RegularInstance(n=6, m=15, h=2, v=5)",
    ),
    "SpanOneInstance": (
        SpanOneInstance,
        ("n", "h", "v", "n0", "n1"),
        (9, 3, 5, 3, 6),
        "SpanOneInstance(n=9, h=3, v=5, n0=3, n1=6)",
    ),
    "Feasibility": (
        Feasibility,
        ("feasible", "violated", "m"),
        (True, None, 15),
        "Feasibility(feasible=True, violated=None, m=15)",
    ),
    "DegreeCheck": (
        DegreeCheck,
        ("kind", "instance", "result"),
        ("regular", REGULAR, FEASIBLE),
        "DegreeCheck(kind='regular', instance=RegularInstance(n=6, m=15, h=2, v=5), "
        "result=Feasibility(feasible=True, violated=None, m=15))",
    ),
    "Hypergraph": (
        Hypergraph,
        ("n", "edges"),
        (3, ((2, 3), (1, 2))),
        "Hypergraph(n=3, edges=((2, 3), (1, 2)))",
    ),
    "RealizationResult": (
        RealizationResult,
        ("status", "hypergraph", "feasibility", "reason"),
        ("realized", HYPERGRAPH, FEASIBLE, None),
        "RealizationResult(status='realized', hypergraph=Hypergraph(n=3, edges=((2, 3), "
        "(1, 2))), feasibility=Feasibility(feasible=True, violated=None, m=15), reason=None)",
    ),
    "BinaryMatrix": (
        BinaryMatrix,
        ("rows", "ncols"),
        (("011", "110"), 3),
        "BinaryMatrix(rows=('011', '110'), ncols=3)",
    ),
    "OracleResult": (
        OracleResult,
        ("exists", "witness"),
        (True, MATRIX),
        "OracleResult(exists=True, witness=BinaryMatrix(rows=('011', '110'), ncols=3))",
    ),
    "LevelPlan": (
        LevelPlan,
        ("divisor", "length", "density", "full_words", "partial_blocks"),
        (1, 6, 2, 2, 0),
        "LevelPlan(divisor=1, length=6, density=2, full_words=2, partial_blocks=0)",
    ),
    "RegularReconstruction": (
        RegularReconstruction,
        ("instance", "levels", "_segments"),
        (REGULAR, LEVELS, REGULAR_BUILT._segments),
        "RegularReconstruction(instance=RegularInstance(n=6, m=15, h=2, v=5), "
        "levels=(LevelPlan(divisor=1, length=6, density=2, full_words=2, partial_blocks=0), "
        "LevelPlan(divisor=2, length=3, density=1, full_words=1, partial_blocks=0)))",
    ),
    "SpanOneReconstruction": (
        SpanOneReconstruction,
        ("instance", "lifted_rows", "lifted_degree", "rows_deleted", "levels", "_segments"),
        (SPAN_ONE, 15, 5, 2, SPAN_ONE_BUILT.levels, SPAN_ONE_BUILT._segments),
        "SpanOneReconstruction(instance=SpanOneInstance(n=9, h=3, v=5, n0=3, n1=6), "
        "lifted_rows=15, lifted_degree=5, rows_deleted=2, "
        "levels=(LevelPlan(divisor=1, length=9, density=3, full_words=1, partial_blocks=2),))",
    ),
    "VerifyResult": (
        VerifyResult,
        ("ok", "problem"),
        (False, "shape"),
        "VerifyResult(ok=False, problem='shape')",
    ),
}

# Per type with defaults: the arguments it needs, and the value they give.
DEFAULTS = {
    "Feasibility": ((True,), Feasibility(True, None, None)),
    "RealizationResult": (("unsupported",), RealizationResult("unsupported", None, None, None)),
    "OracleResult": ((False,), OracleResult(False, None)),
    "VerifyResult": ((True,), VerifyResult(True, None)),
}


def compared(params):
    return [name for name in params if name != "_segments"]


@pytest.fixture(params=CASES, ids=str)
def case(request):
    cls, params, args, text = CASES[request.param]
    return cls, params, cls(*args), text


def test_the_examples_are_the_built_values():
    assert REGULAR_BUILT == CASES["RegularReconstruction"][0](*CASES["RegularReconstruction"][2])
    assert SPAN_ONE_BUILT == CASES["SpanOneReconstruction"][0](*CASES["SpanOneReconstruction"][2])


def test_positional_and_keyword_construction_agree(case):
    cls, params, record, _ = case
    keyword = cls(**{name: getattr(record, name) for name in params})
    assert keyword == record
    assert [getattr(keyword, name) for name in params] == [getattr(record, name) for name in params]


@pytest.mark.parametrize("name", DEFAULTS)
def test_defaults_apply(name):
    args, full = DEFAULTS[name]
    assert CASES[name][0](*args) == full


def test_the_constructor_refuses_bad_arguments(case):
    cls, params, record, _ = case
    values = [getattr(record, name) for name in params]
    first, *rest = params
    with pytest.raises(TypeError, match="missing"):
        cls(**dict(zip(rest, values[1:])))
    with pytest.raises(TypeError, match="missing"):
        cls()
    with pytest.raises(TypeError, match="takes"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=None)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*values, **{first: values[0]})


def test_equal_values_hash_alike_and_each_field_counts(case):
    cls, params, record, _ = case
    twin = copy.copy(record)
    assert twin is not record and twin == record and not twin != record
    assert hash(twin) == hash(record)
    for name in compared(params):
        changed = copy.copy(record)
        object.__setattr__(changed, name, object())
        assert changed != record and not changed == record, name


def test_other_types_compare_unequal(case):
    cls, params, record, _ = case
    values = tuple(getattr(record, name) for name in params)
    assert record != values
    assert record.__eq__(values) is NotImplemented


def test_equal_fields_in_two_record_types_compare_unequal():
    assert VerifyResult(True, None) != OracleResult(True, None)
    assert OracleResult(True, None) != VerifyResult(True, None)
    assert VerifyResult(True, None).__eq__(OracleResult(True, None)) is NotImplemented
    assert Hypergraph(3, ((1, 2),)) != BinaryMatrix(("110",), 3)


@pytest.mark.parametrize("name", ["RegularReconstruction", "SpanOneReconstruction"])
def test_segments_are_left_out_of_equality_and_repr(name):
    cls, _, args, text = CASES[name]
    bare = cls(*args[:-1], [])
    built = cls(*args)
    assert bare == built and hash(bare) == hash(built)
    assert repr(bare) == repr(built) == text
    assert bare._segments == [] and built._segments == args[-1]


def test_repr_is_exact(case):
    _, _, record, text = case
    assert repr(record) == text
    assert str(record) == text


def test_fields_cannot_be_assigned_or_deleted(case):
    _, params, record, _ = case
    for name in params:
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            setattr(record, name, before)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            delattr(record, name)
        assert getattr(record, name) is before


def pickled(record):
    return pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("duplicate", [pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
def test_pickle_and_deepcopy_give_equal_values(case, duplicate):
    cls, params, record, text = case
    twin = duplicate(record)
    assert type(twin) is cls and twin == record and repr(twin) == text
    assert [getattr(twin, name) for name in params] == [getattr(record, name) for name in params]


def test_a_round_trip_keeps_the_rows_read_off_the_plan():
    for built in (REGULAR_BUILT, SPAN_ONE_BUILT):
        twin = pickled(built)
        assert twin.edges == built.edges and twin.matrix == built.matrix


@pytest.mark.parametrize(
    "build",
    [
        lambda: rec_regular_with_plan(RegularInstance(60, 1770, 2, 59)),
        lambda: rec_span_one_with_plan(SPAN_ONE),
    ],
    ids=["regular", "span-one"],
)
def test_reading_the_witness_leaves_the_record_as_it_was(build):
    # A reconstruction keeps neither witness form: its fields, its pickle and
    # its deep copy are its plan, before and after `edges` and `matrix`.
    built = build()
    before = (dict(vars(built)), pickle.dumps(built), vars(copy.deepcopy(built)))
    assert built.edges and built.matrix.rows
    assert (vars(built), pickle.dumps(built), vars(copy.deepcopy(built))) == before
    assert list(vars(built)) == list(type(built).__match_args__)


def test_trusted_gives_the_value_of_the_checked_constructor():
    for cls, args in [(BinaryMatrix, (("011", "110"), 3)), (Hypergraph, (3, ((2, 3), (1, 2))))]:
        trusted = cls._trusted(*args)
        assert type(trusted) is cls and trusted == cls(*args)
        assert repr(trusted) == repr(cls(*args)) and vars(trusted) == vars(cls(*args))


def test_only_rows_from_outside_and_a_transpose_are_checked(monkeypatch, tmp_path):
    # Rows built from checked input are stored through `_trusted`; the
    # `BinaryMatrix` constructor checks only rows read from a file, rows a
    # caller passes, and a transpose, which refuses a matrix with no rows.
    checked = []
    check = BinaryMatrix.__init__

    def spy(self, rows, ncols):
        checked.append(ncols)
        check(self, rows, ncols)

    monkeypatch.setattr(BinaryMatrix, "__init__", spy)
    internal = [
        lambda: REGULAR_BUILT.matrix,
        lambda: SPAN_ONE_BUILT.matrix,
        lambda: words.shift_matrix("000101"),
        lambda: words.block_submatrix(9, 3, 1),
        lambda: to_incidence(HYPERGRAPH),
        lambda: exists_distinct_rows(4, 2, (1, 1, 1, 1)).witness,
        lambda: exists_distinct_rows(4, 0, (0, 0, 0, 0)).witness,
    ]
    for build in internal:
        assert type(build()) is BinaryMatrix
    assert checked == []
    path = tmp_path / "m.txt"
    path.write_text("011\n110\n")
    read, transposed = cli._read_matrix_lines(str(path), 3), MATRIX.transpose()
    assert checked == [3, 2]
    assert read == MATRIX and transposed.rows == ("01", "11", "10")
    with pytest.raises(ValueError, match="at least one column"):
        BinaryMatrix((), 3).transpose()


@pytest.mark.parametrize("name", ["Feasibility", "LevelPlan"])
def test_json_dict_keys_follow_the_fields(name):
    cls, params, args, _ = CASES[name]
    assert list(cls(*args).to_json_dict().items()) == list(zip(params, args))


def test_match_args_list_the_fields(case):
    cls, params, record, _ = case
    assert cls.__match_args__ == params
    match record:
        case RegularInstance(n, m, h, v):
            assert (n, m, h, v) == (6, 15, 2, 5)
        case VerifyResult(ok, problem):
            assert (ok, problem) == (False, "shape")
        case cls(first):
            assert first == getattr(record, params[0])
        case _:
            pytest.fail("no case matched")
