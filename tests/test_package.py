"""The top level of the package: the documented calls, the types they take or
return, and the names the benchmark reads from it. Everything else is
imported from its submodule."""

import re
from pathlib import Path

import hyperdeg

DOCUMENTED_CALLS = {
    "realize",
    "degree_sequence",
    "rec_regular_with_plan",
    "rec_span_one_with_plan",
    "verify",
    "twin_free_bipartite",
}
TYPES = {
    "RegularInstance",
    "SpanOneInstance",
    "RealizationResult",
    "Hypergraph",
    "Feasibility",
    "RegularReconstruction",
    "SpanOneReconstruction",
    "LevelPlan",
    "VerifyResult",
    "BinaryMatrix",
    "ConstructionInvariantError",
}
READ_BY_THE_BENCHMARK = {
    "check_degree_sequence",
    "DegreeCheck",
    "count_lyndon",
    "gen_lyndon",
    "shift_matrix",
    "block_submatrix",
    "from_incidence",
}
TOP_LEVEL = DOCUMENTED_CALLS | TYPES | READ_BY_THE_BENCHMARK
# What bench/ops.py reads as `hd.<name>` today.
OPS_READS = {
    "BinaryMatrix",
    "Hypergraph",
    "RegularInstance",
    "SpanOneReconstruction",
    "block_submatrix",
    "check_degree_sequence",
    "count_lyndon",
    "from_incidence",
    "gen_lyndon",
    "realize",
    "rec_regular_with_plan",
    "rec_span_one_with_plan",
    "shift_matrix",
    "verify",
}


def test_all_is_the_top_level_api():
    assert len(hyperdeg.__all__) == len(TOP_LEVEL) == 24
    assert set(hyperdeg.__all__) == TOP_LEVEL


def test_every_name_resolves_and_star_import_gives_exactly_them():
    for name in hyperdeg.__all__:
        assert getattr(hyperdeg, name) is not None, name
    namespace: dict = {}
    exec("from hyperdeg import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == TOP_LEVEL


def test_the_benchmark_reads_only_top_level_names():
    assert OPS_READS <= TOP_LEVEL
    # `hd` is the package in bench/; a submodule such as `hd.cli` is not a name.
    modules = {path.stem for path in Path(hyperdeg.__file__).parent.glob("*.py")}
    read = set()
    for path in (Path(__file__).resolve().parents[1] / "bench").glob("*.py"):
        read |= set(re.findall(r"\bhd\.(\w+)", path.read_text(encoding="utf-8"))) - modules
    assert read and read <= TOP_LEVEL
