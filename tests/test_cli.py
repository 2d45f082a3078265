import contextlib
import importlib.util
import inspect
import io
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperdeg import cli, reconstruct
from hyperdeg.cli import main
from hyperdeg.feasibility import RegularInstance
from hyperdeg.hypergraphs import from_incidence
from hyperdeg.reconstruct import rec_regular_with_plan, rec_span_one_with_plan, twin_free_bipartite
from test_reconstruct import feasible_regular_instances, feasible_span_one_instances


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def call(*argv):
    """(exit code, stdout, stderr) of main(argv); a parser exit is its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


class TestCount:
    def test_lyndon(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "6", "--h", "2", "--kind", "lyndon")
        assert code == 0 and out.strip() == "2"

    def test_necklace(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "4", "--h", "2", "--kind", "necklace")
        assert code == 0 and out.strip() == "2"

    def test_9_3(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "9", "--h", "3", "--kind", "lyndon")
        assert code == 0 and out.strip() == "9"


class TestGen:
    def test_lyndon_6_2(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "6", "--h", "2", "--kind", "lyndon")
        assert code == 0 and out.split() == ["000011", "000101"]

    def test_lyndon_3_1(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "3", "--h", "1", "--kind", "lyndon")
        assert code == 0 and out.split() == ["001"]

    def test_necklace_4_2(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "4", "--h", "2", "--kind", "necklace")
        assert code == 0 and out.split() == ["0011", "0101"]

    def test_limit(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--n", "9", "--h", "3", "--kind", "lyndon", "--limit", "2"
        )
        assert code == 0 and out.split() == ["000000111", "000001011"]

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_no_words_pulls_none(self, limit):
        # Lyndon generation recurses to depth n; at n = 1500 pulling even one
        # word overflows the stack, so this passes only if none is pulled.
        argv = ("gen", "--n", "1500", "--h", "3", "--kind", "lyndon", "--limit", limit)
        assert call(*argv) == (0, "", "")

    @pytest.mark.parametrize("limit", [1, 2, 5])
    def test_pulls_exactly_the_limit(self, monkeypatch, limit):
        words = ["001", "010", "100", "011", "101", "110"]
        pulled = []

        def spy(n, h):
            for word in words:
                pulled.append(word)
                yield word

        monkeypatch.setitem(cli._WORDS, "lyndon", (cli.count_lyndon, spy))
        argv = ("gen", "--n", "3", "--h", "1", "--kind", "lyndon", "--limit", str(limit))
        code, out, _ = call(*argv)
        assert code == 0 and out.split() == pulled == words[:limit]

    def test_a_limit_past_sys_maxsize_takes_every_word(self):
        argv = ("gen", "--n", "10", "--h", "3", "--kind", "lyndon")
        everything = call(*argv, "--limit", "1000")
        assert everything[0] == 0 and len(everything[1].split()) == 12
        assert call(*argv, "--limit", "100000000000000000000") == everything

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--h", "1", "--kind", "lyndon"),
            ("gen", "--h", "1", "--kind", "necklace"),
            ("gen", "--h", "1", "--kind", "necklace", "--limit", "0"),
            ("bipartite", "--k", "2"),
        ],
        ids=["lyndon", "necklace", "necklace-no-words", "bipartite"],
    )
    @pytest.mark.parametrize(
        "n", ["100000000000000000000", "4611686018427387904"], ids=["past-ssize_t", "2^62"]
    )
    def test_a_word_too_long_to_store_is_a_usage_error(self, argv, n):
        code, out, err = call(*argv, "--n", n)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: word length {n} is too large to store"]


class TestCheck:
    def test_feasible_span_one(self, capsys):
        code, out, _ = run(
            capsys, "check", "--h", "3", "--degrees", "5,5,5,4,4,4,4,4,4"
        )
        assert code == 0
        assert json.loads(out) == {"feasible": True, "violated": None, "m": 13}

    def test_infeasible_regular(self, capsys):
        code, out, _ = run(capsys, "check", "--h", "2", "--n", "6", "--v", "6")
        assert code == 1
        assert json.loads(out) == {"feasible": False, "violated": "cond3", "m": 18}

    def test_unsupported_class(self, capsys):
        code, out, err = run(capsys, "check", "--h", "2", "--degrees", "4,2,2")
        assert code == 1
        assert json.loads(out) == {"supported": False, "reason": "span>1"}
        assert "span" in err

    def test_degrees_file(self, capsys, tmp_path):
        path = tmp_path / "degrees.txt"
        path.write_text("".join(f"{d}\n" for d in (5, 5, 5, 4, 4, 4, 4, 4, 4)))
        code, out, _ = run(capsys, "check", "--h", "3", "--degrees-file", str(path))
        assert code == 0 and json.loads(out)["m"] == 13

    def test_degree_lists_skip_blanks_and_surrounding_space(self, tmp_path):
        path = tmp_path / "degrees.txt"
        path.write_bytes(b"3\r\n\r\n3\r\n 3 \r\n3\r\n")
        regular = call("check", "--h", "2", "--n", "4", "--v", "3")
        assert regular[0] == 0
        assert call("check", "--h", "2", "--degrees", " 3, ,3,3 ,3") == regular
        assert call("check", "--h", "2", "--degrees-file", str(path)) == regular

    def test_a_degree_file_with_a_byte_order_mark_reads_as_without(self, tmp_path):
        plain, marked = tmp_path / "plain.degrees", tmp_path / "marked.degrees"
        plain.write_bytes(b"3\r\n3\n3\n3\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for command in ("check", "reconstruct"):
            expected = call(command, "--h", "2", "--degrees-file", str(plain))
            assert expected[0] == 0
            assert call(command, "--h", "2", "--degrees-file", str(marked)) == expected

    def test_an_empty_degree_list_is_usage_error(self, tmp_path):
        path = tmp_path / "degrees.txt"
        path.write_text("")
        assert call("check", "--h", "2", "--degrees", ",") == (2, "", "error: no degrees given\n")
        assert call("check", "--h", "2", "--degrees-file", str(path)) == (
            2,
            "",
            f"error: degree file {path} is empty\n",
        )

    def test_unsorted_degrees_notice(self, capsys):
        code, out, err = run(capsys, "check", "--h", "3", "--degrees", "4,5,4,5,4,4,5,4,4")
        assert code == 0
        assert "sorted" in err

    def test_missing_source_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--h", "3")
        assert code == 2 and "degrees" in err


class TestDegreeOrder:
    """A list out of order gives the stdout and exit code of the same list in
    order; its stderr is the note, then what the ordered run writes."""

    NOTE = "note: degrees sorted nonincreasingly\n"

    def assert_same_but_the_note(self, shuffled, ordered):
        assert shuffled == (ordered[0], ordered[1], self.NOTE + ordered[2])

    @pytest.mark.parametrize(
        "h, shuffled, ordered",
        [
            ("3", "4,5,4,4,5,4,4,5,4", "5,5,5,4,4,4,4,4,4"),
            ("2", "2,3,3", "3,3,2"),
            ("2", "1,3,2", "3,2,1"),
            ("2", "1,-1,2", "2,1,-1"),
        ],
        ids=["feasible", "infeasible", "span-two", "negative"],
    )
    @pytest.mark.parametrize("source", ["--degrees", "--degrees-file"])
    def test_check_reconstruct_and_verify(self, tmp_path, h, shuffled, ordered, source):
        def degree_args(degrees):
            if source == "--degrees":
                return ["--h", h, f"--degrees={degrees}"]
            path = tmp_path / f"{degrees}.degrees"
            path.write_text(degrees.replace(",", "\n"))
            return ["--h", h, "--degrees-file", str(path)]

        def same(*argv):
            ordered_run = call(argv[0], *degree_args(ordered), *argv[1:])
            self.assert_same_but_the_note(
                call(argv[0], *degree_args(shuffled), *argv[1:]), ordered_run
            )
            return ordered_run

        same("check")
        for fmt in ("csv", "json", "edges"):
            same("reconstruct", "--format", fmt)
        _, witness, _ = same("reconstruct", "--format", "lines")
        matrix = tmp_path / "witness.lines"
        matrix.write_text(witness)
        same("verify", "--matrix", str(matrix))

    def test_oracle_sorts_what_it_is_handed(self):
        ordered = call("oracle", "--h", "2", "--degrees", "3,3,2,2")
        assert ordered[0] == 0
        self.assert_same_but_the_note(call("oracle", "--h", "2", "--degrees", "2,3,2,3"), ordered)


class TestReconstruct:
    def test_lines_roundtrip_verify(self, capsys, tmp_path):
        matrix_path = tmp_path / "matrix.txt"
        code, _, _ = run(
            capsys,
            "reconstruct",
            "--h",
            "3",
            "--degrees",
            "5,5,5,4,4,4,4,4,4",
            "--output",
            str(matrix_path),
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "verify",
            "--h",
            "3",
            "--degrees",
            "5,5,5,4,4,4,4,4,4",
            "--matrix",
            str(matrix_path),
        )
        assert code == 0
        assert json.loads(out) == {"valid": True, "problem": None}

    def test_regular_roundtrip_verify(self, capsys, tmp_path):
        matrix_path = tmp_path / "regular.txt"
        code, _, _ = run(
            capsys, "reconstruct", "--h", "2", "--n", "6", "--v", "5",
            "--output", str(matrix_path),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "verify", "--h", "2", "--n", "6", "--v", "5",
            "--matrix", str(matrix_path),
        )
        assert code == 0 and json.loads(out)["valid"] is True

    def test_json_format_carries_plan(self, capsys):
        code, out, _ = run(
            capsys, "reconstruct", "--h", "2", "--n", "6", "--v", "5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 6 and payload["m"] == 15 and payload["h"] == 2
        assert len(payload["rows"]) == 15
        assert payload["plan"]["levels"] == [
            {"divisor": 1, "length": 6, "density": 2, "full_words": 2, "partial_blocks": 0},
            {"divisor": 2, "length": 3, "density": 1, "full_words": 1, "partial_blocks": 0},
        ]

    def test_span_one_plan_intermediates(self, capsys):
        code, out, _ = run(
            capsys,
            "reconstruct",
            "--h",
            "3",
            "--degrees",
            "5,5,5,4,4,4,4,4,4",
            "--format",
            "json",
        )
        assert code == 0
        plan = json.loads(out)["plan"]
        assert plan["lifted_ones"] == 45
        assert plan["lifted_rows"] == 15
        assert plan["lifted_degree"] == 5
        assert plan["rows_deleted"] == 2

    def test_edges_format(self, capsys):
        code, out, _ = run(
            capsys, "reconstruct", "--h", "2", "--n", "4", "--v", "1", "--format", "edges"
        )
        assert code == 0
        assert out.splitlines() == ["3 4", "1 2"]

    @pytest.mark.parametrize("h", range(6))
    def test_edge_text_is_the_decimal_vertices(self, h):
        edge_text = cli._FORMATS["edges"][0](h)
        for edge in [tuple(range(1, h + 1)), tuple(range(995, 995 + 2 * h, 2))]:
            assert edge_text(edge) == " ".join(map(str, edge))

    @pytest.mark.parametrize(
        "instance",
        [RegularInstance(4, 0, 2, 0), RegularInstance(9, 15, 3, 5), RegularInstance(120, 420, 2, 7)],
    )
    def test_edges_format_writes_each_edge(self, instance):
        edges = rec_regular_with_plan(instance).edges
        argv = ("--h", str(instance.h), "--n", str(instance.n), "--v", str(instance.v))
        text = "\n".join(" ".join(map(str, edge)) for edge in edges) + "\n"
        assert call("reconstruct", *argv, "--format", "edges") == (0, text, "")

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "reconstruct", "--h", "2", "--n", "4", "--v", "1", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["0,0,1,1", "1,1,0,0"]

    def test_infeasible_exit(self, capsys):
        code, out, err = run(capsys, "reconstruct", "--h", "2", "--n", "6", "--v", "6")
        assert code == 1 and out == "" and "cond3" in err

    def test_unsupported_exit(self, capsys):
        code, _, err = run(capsys, "reconstruct", "--h", "2", "--degrees", "4,2,2")
        assert code == 1 and "span" in err


def _renderings(matrix, h, plan=None):
    """Each matrix format of a checked matrix, rendered whole, with the
    closing newline: the reference for the rows the CLI writes."""
    payload = {"n": matrix.ncols, "m": matrix.nrows, "h": h, "rows": list(matrix.rows)}
    if plan is not None:
        payload["plan"] = plan
    return {
        "lines": "\n".join(matrix.rows) + "\n",
        "csv": "\n".join(map(",".join, matrix.rows)) + "\n",
        "json": json.dumps(payload) + "\n",
    }


class TestRowsFromThePlan:
    """The matrix formats are written from the checked plan, a block at a
    time; their bytes are those of the construction's matrix."""

    def test_every_small_instance_matches_its_matrix(self, tmp_path, monkeypatch):
        # Each instance is built once: its expected rendering and the six CLI
        # calls on it share that build. Each --output file is read and then
        # removed, so every call creates its file anew; truncating a file
        # costs far more than creating one on some file systems.
        path = tmp_path / "rows"
        instances = [inst for inst in feasible_regular_instances(10) if inst.h]
        instances += feasible_span_one_instances(10)
        assert len(instances) == 2091
        assert any(inst.m == 0 for inst in instances)  # no rows: a lone newline
        for inst in instances:
            if isinstance(inst, RegularInstance):
                built = rec_regular_with_plan(inst)
                source = ("--n", str(inst.n), "--v", str(inst.v))
            else:
                built = rec_span_one_with_plan(inst)
                source = ("--degrees", ",".join(map(str, inst.degree_vector())))

            def shared(instance, inst=inst, built=built):
                assert instance == inst
                return built

            monkeypatch.setitem(cli._BUILDERS, type(inst), shared)
            expected = _renderings(built.matrix, inst.h, built.plan_json())
            for fmt, text in expected.items():
                argv = ("reconstruct", "--h", str(inst.h), *source, "--format", fmt)
                assert call(*argv) == (0, text, ""), argv
                assert call(*argv, "--output", str(path)) == (0, "", ""), argv
                assert path.read_text(encoding="utf-8") == text, argv
                path.unlink()

    def test_bipartite_shares_the_row_writer(self, tmp_path):
        path = tmp_path / "rows"
        for n in range(2, 9):
            for k in range(1, n):
                matrix = twin_free_bipartite(n, k)
                edges = from_incidence(matrix).edges
                edges_text = "".join(" ".join(map(str, edge)) + "\n" for edge in edges)
                expected = _renderings(matrix, k) | {"edges": edges_text}
                for fmt, text in expected.items():
                    argv = ("bipartite", "--n", str(n), "--k", str(k), "--format", fmt)
                    assert call(*argv) == (0, text, ""), argv
                    assert call(*argv, "--output", str(path)) == (0, "", ""), argv
                    assert path.read_text(encoding="utf-8") == text, argv

    def test_bipartite_builds_no_matrix(self, monkeypatch):
        def no_matrix(built):
            raise AssertionError("bipartite built a BinaryMatrix")

        formats = ("lines", "csv", "json", "edges")
        argvs = [("bipartite", "--n", "6", "--k", "2", "--format", fmt) for fmt in formats]
        expected = [call(*argv) for argv in argvs]
        monkeypatch.setattr(reconstruct._RendersRows, "matrix", property(no_matrix))
        for argv, result in zip(argvs, expected):
            assert result[0] == 0 and call(*argv) == result, argv

    @pytest.mark.parametrize(
        "source", [("--n", "9", "--v", "5"), ("--degrees", "5,5,5,4,4,4,4,4,4")]
    )
    def test_matrix_formats_emit_no_edges(self, monkeypatch, source):
        def no_edges(segments):
            raise AssertionError("reconstruct emitted edges")

        formats = ("lines", "csv", "json")
        argvs = [("reconstruct", "--h", "3", *source, "--format", fmt) for fmt in formats]
        expected = [call(*argv) for argv in argvs]
        monkeypatch.setattr(reconstruct, "_edges", no_edges)
        for argv, result in zip(argvs, expected):
            assert result[0] == 0 and call(*argv) == result, argv
        code, out, err = call("reconstruct", "--h", "3", *source, "--format", "edges")
        assert (code, out) == (3, "") and "reconstruct emitted edges" in err

    def test_lines_output_peaks_below_its_file_size(self, tmp_path):
        # The rows are never held whole: the heap peak (the plan, its check,
        # one block of rows) stays below the 6.9 MB the file takes.
        path = tmp_path / "rows"
        argv = ["reconstruct", "--h", "3", "--n", "600", "--v", "60", "--format", "lines"]
        call("check", "--h", "2", "--n", "4", "--v", "1")  # the parser is built once per process
        tracemalloc.start()
        try:
            code = main([*argv, "--output", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < path.stat().st_size == 12_000 * 601


class TestNegativeDegrees:
    @pytest.mark.parametrize("value", ["-1,2", "-1", "2,-1", "-0,-3"])
    def test_reach_the_degree_check(self, value):
        # argparse alone takes "-1,2" for an option and prints its usage.
        code, out, err = call("check", "--h", "2", "--degrees", value)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "error: degrees must be nonnegative"
        assert call("check", "--h", "2", f"--degrees={value}") == (code, out, err)


class TestDegreeGate:
    """--n and --v build a degree list that passes the same check as any
    other: a list of no degrees or of negative ones is a usage error."""

    @pytest.mark.parametrize("command", ["check", "reconstruct", "verify"])
    @pytest.mark.parametrize(
        "n, v, line",
        [
            ("0", "1", "error: degree sequence must be nonempty"),
            ("4", "-1", "error: degrees must be nonnegative"),
        ],
        ids=["no-degrees", "negative-degree"],
    )
    def test_refused_with_exit_2(self, tmp_path, command, n, v, line):
        matrix = tmp_path / "m.txt"
        matrix.write_text("\n")
        extra = ["--matrix", str(matrix)] if command == "verify" else []
        code, out, err = call(command, "--h", "2", "--n", n, "--v", v, *extra)
        assert (code, out) == (2, "")
        assert err.splitlines() == [line]

    @pytest.mark.parametrize("command", ["check", "reconstruct", "verify", "oracle"])
    @pytest.mark.parametrize(
        "n", ["10000000000000000000", "4611686018427387904"], ids=["past-ssize_t", "2^62"]
    )
    def test_an_n_too_large_for_a_list_is_a_usage_error(self, tmp_path, command, n):
        # Past the index range the tuple repeat raises OverflowError; at 2^62
        # it raises MemoryError before it allocates anything.
        matrix = tmp_path / "m.txt"
        matrix.write_text("\n")
        extra = ["--matrix", str(matrix)] if command == "verify" else []
        code, out, err = call(command, "--h", "2", "--n", n, "--v", "1", *extra)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: --n {n} is too large for a degree list"]

    def test_n_and_v_give_the_degree_tuple_as_built(self):
        # (1,)*10**6 takes 8 MB; a sorted copy and its tuple would take 16 MB more.
        call("check", "--h", "2", "--n", "4", "--v", "1")  # the parser is built once per process
        tracemalloc.start()
        try:
            result = call("check", "--h", "2", "--n", str(10**6), "--v", "1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == (0, '{"feasible": true, "violated": null, "m": 500000}\n', "")
        assert peak < 9 * 10**6

    def test_a_nonincreasing_degree_file_is_passed_on_as_read(self, tmp_path):
        # The 200,000 degrees read take 1.6 MB as a tuple; a sorted list and a
        # second tuple would take 3.2 MB more.
        path = tmp_path / "degrees"
        path.write_text("3\n" * 100_000 + "2\n" * 100_000)
        call("check", "--h", "5", "--n", "4", "--v", "1")  # the parser is built once per process
        tracemalloc.start()
        try:
            result = call("check", "--h", "5", "--degrees-file", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == (0, '{"feasible": true, "violated": null, "m": 100000}\n', "")
        assert peak < 3 * 10**6

    def test_a_degree_file_out_of_order_is_passed_on_as_read(self, tmp_path):
        # The library decides a list in any order: no sorted list of the
        # 200,000 degrees and no second tuple of them is made, only the note.
        path = tmp_path / "degrees"
        path.write_text("2\n" * 100_000 + "3\n" * 100_000)
        call("check", "--h", "5", "--n", "4", "--v", "1")  # the parser is built once per process
        tracemalloc.start()
        try:
            result = call("check", "--h", "5", "--degrees-file", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == (
            0,
            '{"feasible": true, "violated": null, "m": 100000}\n',
            "note: degrees sorted nonincreasingly\n",
        )
        assert peak < 3 * 10**6


class TestVerifyCommand:
    @pytest.mark.parametrize("text", ["\n", ""], ids=["reconstruct-output", "empty"])
    def test_no_rows_is_the_matrix_of_no_rows(self, tmp_path, text):
        path = tmp_path / "zero.txt"
        instance = ("--h", "2", "--n", "4", "--v", "0")
        assert call("reconstruct", *instance, "--output", str(path)) == (0, "", "")
        assert path.read_text() == "\n"
        path.write_text(text)
        valid = '{"valid": true, "problem": null}\n'
        assert call("verify", *instance, "--matrix", str(path)) == (0, valid, "")
        code, out, err = call("verify", "--h", "2", "--n", "4", "--v", "1", "--matrix", str(path))
        assert (code, json.loads(out), err) == (1, {"valid": False, "problem": "shape"}, "")

    @pytest.mark.parametrize("degrees", ["3,3,3,3,3,3,3", "2,2,1"], ids=["regular", "span-one"])
    def test_no_integral_row_count_is_shape(self, tmp_path, degrees):
        # No m makes m*h the degree total: no matrix has the shape, so a
        # well-formed one is answered `shape`, and a malformed one is still a
        # usage error.
        path = tmp_path / "m.txt"
        n = len(degrees.split(","))
        for text in ("", "1" * 2 + "0" * (n - 2) + "\n", "0" * n + "\n" + "1" * n + "\n"):
            path.write_text(text)
            code, out, err = call("verify", "--h", "2", "--degrees", degrees, "--matrix", str(path))
            assert (code, json.loads(out), err) == (1, {"valid": False, "problem": "shape"}, "")
        path.write_text("01x\n")
        code, out, err = call("verify", "--h", "2", "--degrees", degrees, "--matrix", str(path))
        assert (code, out) == (2, "") and err.startswith("error: row 1 has symbol 'x'")

    def test_a_matrix_file_with_a_byte_order_mark_reads_as_without(self, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        instance = ("--h", "2", "--n", "6", "--v", "5")
        assert call("reconstruct", *instance, "--output", str(plain)) == (0, "", "")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = call("verify", *instance, "--matrix", str(plain))
        assert expected == (0, '{"valid": true, "problem": null}\n', "")
        assert call("verify", *instance, "--matrix", str(marked)) == expected

    def test_unsupported_class_is_refused_as_by_reconstruct(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("110\n")
        refusal = (1, "", "unsupported degree class: span>1\n")
        assert call("verify", "--h", "2", "--degrees", "3,2,1", "--matrix", str(path)) == refusal
        assert call("reconstruct", "--h", "2", "--degrees", "3,2,1") == refusal
        supported = '{"supported": false, "reason": "span>1"}\n'
        assert call("check", "--h", "2", "--degrees", "3,2,1") == (1, supported, refusal[2])

    @pytest.mark.parametrize(
        "change, problem",
        [
            (None, None),
            ("drop the last row", "shape"),
            ("copy row 1 over row 2", "duplicate rows"),
            ("add a one to row 1", "row sum"),
            ("move row 1 to columns 1 and 3", "column sum"),
        ],
        ids=["valid", "shape", "duplicate-rows", "row-sum", "column-sum"],
    )
    def test_each_verdict_on_a_sparse_witness(self, tmp_path, change, problem):
        # n = 300 and h = 2 put 150 columns on each one, so rows are read by
        # their ones. The witness is one coset block: row i has its ones in
        # two adjacent columns, and every column sums to 1.
        assert 300 >= reconstruct._SPARSE * 2
        instance = ("--h", "2", "--n", "300", "--v", "1")
        path = tmp_path / "m.txt"
        assert call("reconstruct", *instance, "--output", str(path)) == (0, "", "")
        rows = path.read_text().split()
        assert len(rows) == 150
        if change == "drop the last row":
            rows.pop()
        elif change == "copy row 1 over row 2":
            rows[1] = rows[0]
        elif change == "add a one to row 1":
            rows[0] = "1" + rows[0][1:]
            assert rows[0].count("1") == 3
        elif change == "move row 1 to columns 1 and 3":
            rows[0] = "101" + "0" * 297
        path.write_text("".join(row + "\n" for row in rows))
        verdict = json.dumps({"valid": problem is None, "problem": problem}) + "\n"
        code = 0 if problem is None else 1
        assert call("verify", *instance, "--matrix", str(path)) == (code, verdict, "")

    def test_detects_broken_matrix(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0011\n0011\n")
        code, out, _ = run(
            capsys, "verify", "--h", "2", "--degrees", "1,1,1,1", "--matrix", str(path)
        )
        assert code == 1
        assert json.loads(out) == {"valid": False, "problem": "duplicate rows"}

    def test_malformed_long_row_is_short_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("01" * 1000 + "\n" + "10" * 700 + "x" + "10" * 299 + "1\n")
        code, out, err = run(
            capsys, "verify", "--h", "1000", "--n", "2000", "--v", "1", "--matrix", str(path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: row 2 has symbol 'x' at column 1401")
        assert len(err) < 200

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "verify",
            "--h",
            "2",
            "--degrees",
            "1,1,1,1",
            "--matrix",
            str(tmp_path / "absent.txt"),
        )
        assert code == 2 and "error" in err


class TestBipartite:
    def test_matrix_output(self, capsys):
        code, out, _ = run(capsys, "bipartite", "--n", "4", "--k", "2")
        assert code == 0
        assert out.split() == ["0011", "0110", "1100", "1001"]

    def test_rejects_bad_degree(self, capsys):
        code, _, err = run(capsys, "bipartite", "--n", "4", "--k", "4")
        assert code == 2 and "error" in err


class TestOracleCommand:
    def test_exists(self, capsys):
        code, out, _ = run(capsys, "oracle", "--h", "2", "--degrees", "3,3,2,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["exists"] is True
        assert sorted(payload["witness"]) == ["0101", "0110", "1001", "1010", "1100"]

    def test_not_exists(self, capsys):
        # 35,...,35,7: each of the first seven columns needs all 35 rows with
        # a one there, so all 70 rows are needed, but the total admits 63.
        # Passing over any row leaves a column short, which the capacity
        # prune sees at once; without it the search runs for seconds.
        for h, degrees in (("2", "6,6,6,6,6,6"), ("4", "35,35,35,35,35,35,35,7")):
            code, out, _ = run(capsys, "oracle", "--h", h, "--degrees", degrees)
            assert code == 1
            assert json.loads(out) == {"exists": False, "witness": None}

    def test_no_integral_row_count_is_infeasible(self, capsys):
        # A degree total of 3 admits no whole number of rows of sum 2; check
        # answers the same list with exit 1 (integrality).
        code, out, err = run(capsys, "oracle", "--h", "2", "--n", "3", "--v", "1")
        assert code == 1 and err == ""
        assert out == '{"exists": false, "witness": null}\n'

    def test_guard_is_usage_error(self, capsys):
        code, _, err = run(capsys, "oracle", "--h", "2", "--degrees", "1,1,1,1,1,1,1,1,1")
        assert code == 2 and "error" in err

    def test_edge_size_above_column_count_is_infeasible(self, capsys):
        # Listing the candidate rows would first allocate h indices: 8 PB here.
        code, out, err = run(
            capsys, "oracle", "--h", "1000000000000000", "--n", "3", "--v", "10000000000000000"
        )
        assert code == 1 and err == ""
        assert json.loads(out) == {"exists": False, "witness": None}


class TestInternalErrors:
    def test_recursion_error_is_internal_not_infeasible(self, capsys):
        # The recursive Lyndon generator overflows the stack at this length.
        code, out, err = run(capsys, "reconstruct", "--h", "3", "--n", "1500", "--v", "1")
        assert code == 3 and out == ""
        assert err.startswith("internal error: RecursionError")
        assert len(err.splitlines()) == 1

    def test_unexpected_exception_is_one_line_exit_3(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setattr(cli, "cmd_count", broken)
        code, out, err = run(capsys, "count", "--n", "6", "--h", "2", "--kind", "lyndon")
        assert code == 3 and out == ""
        assert err == "internal error: RuntimeError: first line second line\n"

    @pytest.mark.parametrize("fmt", ["lines", "edges"])
    def test_construction_fault_is_internal(self, capsys, monkeypatch, fmt):
        plan = reconstruct._plan_regular

        def doubled_plan(inst):
            # One class twice: 21 rows, 6 of them repeated, where 15 are due.
            segments, levels = plan(inst)
            return segments + segments[:1], levels

        monkeypatch.setattr(reconstruct, "_plan_regular", doubled_plan)
        code, out, err = run(
            capsys, "reconstruct", "--h", "2", "--n", "6", "--v", "5", "--format", fmt
        )
        assert code == 3 and out == ""
        assert err.startswith(
            "internal error: ConstructionInvariantError: built 21 edges, expected 15"
        )
        assert len(err.splitlines()) == 1


class TestCallDepth:
    # From cli.main to gen_lyndon, both counted, the call chain is main,
    # cmd_reconstruct, rec_*_with_plan, _plan_* (span-one: then _plan_regular)
    # and gen_lyndon: 5 and 6 frames, as measured before the construction had
    # one call per degree class. The Lyndon generator recurses to depth n, so
    # one frame less lets larger n build before RecursionError; that changes
    # which long sparse instances succeed and how much memory a run peaks at.
    @pytest.mark.parametrize(
        "source, frames",
        [
            (("--n", "6", "--v", "5", "--h", "2"), 5),
            (("--degrees", "5,5,5,4,4,4,4,4,4", "--h", "3"), 6),
        ],
        ids=["regular", "span-one"],
    )
    @pytest.mark.parametrize("fmt", ["lines", "edges"])
    def test_reconstruct_reaches_lyndon_generation_at_a_fixed_depth(
        self, capsys, monkeypatch, source, frames, fmt
    ):
        depths = []
        real = reconstruct.gen_lyndon

        def gen_lyndon(n, d):
            codes = [info.frame.f_code for info in inspect.stack(0)]
            depths.append(codes.index(main.__code__) + 1)
            return real(n, d)

        monkeypatch.setattr(reconstruct, "gen_lyndon", gen_lyndon)
        code, _, _ = run(capsys, "reconstruct", *source, "--format", fmt)
        assert code == 0
        assert depths and set(depths) == {frames}


class TestSharedParser:
    """main builds its parser once per process; no call may see another's
    arguments."""

    def test_calls_in_one_process_match_fresh_calls(self, tmp_path):
        edges_path, rows_path = tmp_path / "witness.edges", tmp_path / "witness.lines"
        instance = ("--h", "2", "--n", "6", "--v", "5")
        cli._build_parser.cache_clear()

        write = call("reconstruct", *instance, "--format", "edges", "--output", str(edges_path))
        written = edges_path.read_text()
        bare = call("reconstruct", *instance)
        edges = [tuple(map(int, line.split())) for line in written.splitlines()]
        rows_path.write_text(
            "".join("".join("1" if j in edge else "0" for j in range(1, 7)) + "\n" for edge in edges)
        )
        read = call("verify", *instance, "--matrix", str(rows_path))
        usage = call("check", "--h", "two", "--n", "6", "--v", "5")
        good = call("check", *instance)
        assert cli._build_parser.cache_info().misses == 1

        assert write == (0, "", "") and len(edges) == 15
        assert bare[0] == 0 and bare[1] == rows_path.read_text()
        assert read == (0, '{"valid": true, "problem": null}\n', "")
        assert usage[0] == 2 and "invalid int value: 'two'" in usage[2]
        assert good[0] == 0 and json.loads(good[1])["feasible"] is True

        cli._build_parser.cache_clear()
        assert call("reconstruct", *instance, "--format", "edges", "--output", str(edges_path)) == write
        assert edges_path.read_text() == written
        for argv, shared in [
            (("reconstruct", *instance), bare),
            (("verify", *instance, "--matrix", str(rows_path)), read),
            (("check", "--h", "two", "--n", "6", "--v", "5"), usage),
            (("check", *instance), good),
        ]:
            cli._build_parser.cache_clear()
            assert call(*argv) == shared, argv

    def test_help_lists_every_subcommand(self):
        call("count", "--n", "6", "--h", "2", "--kind", "lyndon")
        code, out, _ = call("--help")
        assert code == 0
        assert "{count,gen,check,reconstruct,verify,bipartite,oracle}" in out


# Sizes are bounded where they size a construction or a search; only the
# edge size may be huge, since h > n is answered before anything is built.
_SMALL = st.integers(-64, 64)
_MALFORMED = st.sampled_from(["", " ", "x", "1.5", "1e3", "0x10", "3 4", "--", "\u0663\u0660"])


@st.composite
def _number(draw, ints):
    """An integer, or one time in eight text that is none."""
    return draw(_MALFORMED) if draw(st.integers(0, 7)) == 5 else str(draw(ints))


_EDGE_SIZE = _number(st.one_of(st.integers(1, 6), _SMALL, st.integers(-(10**30), 10**30)))
_DEGREE_LINES = st.one_of(
    # v and v-1 in any order: the regular and span-one classes, often unsorted.
    st.tuples(st.integers(0, 64), st.integers(0, 32), st.integers(0, 32)).flatmap(
        lambda t: st.permutations([str(t[0])] * t[1] + [str(t[0] - 1)] * t[2])
    ),
    st.lists(_number(st.integers(-2, 64)), max_size=64),
    st.sampled_from([[], [""], ["  ", "\t"], ["1 2", "3"], ["4,4"]]),
)
_FILE_BYTES = st.one_of(
    _DEGREE_LINES.map(lambda lines: "\n".join(lines).encode()),
    st.sampled_from([b"\xff\xfe\n", b"1\n\x80\n"]),
)
_MATRIX_BYTES = st.one_of(
    st.lists(st.text("01", max_size=64), max_size=16).map(lambda rows: "\n".join(rows).encode()),
    st.sampled_from([b"", b"\n\n", b"01 10\n", b"0110\n01\n", b"\xff01\n"]),
)


@st.composite
def _argv(draw):
    """Arguments of one of the seven subcommands, with malformed, negative,
    huge or empty values, and the bytes of the files they name: empty,
    blank, split or not UTF-8."""
    command = draw(st.sampled_from(["count", "gen", "check", "reconstruct", "verify", "bipartite", "oracle"]))
    if command in ("count", "gen"):
        argv = [command, "--n", draw(_number(_SMALL)), "--h", draw(_EDGE_SIZE)]
        argv += ["--kind", draw(st.sampled_from(["lyndon", "necklace"]))]
        return argv + (["--limit", str(draw(st.integers(-2, 5)))] if command == "gen" else []), {}
    if command == "bipartite":
        argv = [command, "--n", draw(_number(_SMALL)), "--k", draw(_number(_SMALL))]
        return argv + ["--format", draw(st.sampled_from(["lines", "csv", "json", "edges"]))], {}
    # The exhaustive oracle takes seconds on some 7- and 8-column inputs.
    width = _SMALL.filter(lambda n: n not in (7, 8)) if command == "oracle" else _SMALL
    lines = _DEGREE_LINES.filter(lambda d: len(d) not in (7, 8)) if command == "oracle" else _DEGREE_LINES
    source = draw(st.sampled_from(["n-v", "degrees", "file", "none"]))
    argv, files = [command, "--h", draw(_EDGE_SIZE)], {}
    if source == "n-v":
        argv += ["--n", draw(_number(width)), "--v", draw(_number(_SMALL))]
    elif source == "degrees":
        argv += ["--degrees", ",".join(draw(lines))]
    elif source == "file":
        files["degrees"] = draw(_FILE_BYTES)
        argv += ["--degrees-file", "degrees"]
    if command == "reconstruct":
        argv += ["--format", draw(st.sampled_from(["lines", "csv", "json", "edges"]))]
    if command == "verify":
        files["matrix"] = draw(_MATRIX_BYTES)
        argv += ["--matrix", "matrix"]
    return argv, files


class TestArgvFuzz:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("argv")

    @settings(max_examples=250, deadline=None)
    @given(case=_argv())
    @example(case=(["oracle", "--h", str(10**30), "--n", "3", "--v", "0"], {}))
    def test_bad_input_exits_1_or_2_with_one_line(self, workdir, case):
        argv, files = case
        for name, data in files.items():
            (workdir / name).write_bytes(data)
        argv = [str(workdir / arg) if arg in files else arg for arg in argv]
        code, _, err = call(*argv)
        lines = [line for line in err.splitlines() if line != "note: degrees sorted nonincreasingly"]
        assert code in (0, 1, 2), (argv, err)
        if code == 0:
            assert lines == [], (argv, err)
        elif lines and lines[-1].startswith("hyperdeg"):
            # argparse rejected the arguments: usage lines, then one error line.
            assert code == 2 and ": error: " in lines[-1], (argv, err)
        elif code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        else:
            assert len(lines) <= 1 and "Traceback" not in err, (argv, err)


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_bad_integer(self, capsys):
        code, _, err = run(capsys, "check", "--h", "2", "--degrees", "1,x,1")
        assert code == 2 and "error" in err


ROOT = Path(__file__).resolve().parents[1]


def _digest_tool():
    """tools/cli_digests.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "tools" / "cli_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOutputDigests:
    def test_every_small_list_gives_the_recorded_output(self):
        # stdout, stderr and exit code of check, reconstruct in each format
        # and verify over every regular and span-one list with n <= 10, oracle
        # over those with n <= 6, and count, gen (whole and --limit 3) and
        # bipartite in each format for every (n, h) with n <= 10, against the
        # entries of the n <= 14 record (CI walks all of it);
        # tools/cli_digests.py records the file again when a change means to
        # alter the output.
        recorded = json.loads((ROOT / "tests" / "data" / "cli_digests_n14.json").read_text())
        small = {key: entry for key, entry in recorded.items() if int(key.split(",")[0]) <= 10}
        assert _digest_tool().digests(10) == small


class TestCommandsAgree:
    def test_every_small_list_gets_one_answer(self, tmp_path):
        # Over every regular and span-one list with n <= 7 that the digests
        # walk, the three commands that decide a list exit alike, 0 or 1,
        # and verify accepts the witness reconstruct writes for each feasible
        # one. The exhaustive oracle is the ground truth the other two meet.
        matrix, sources = str(tmp_path / "witness.lines"), _digest_tool()._sources
        walked = 0
        for n in range(1, 8):
            for h in range(1, n + 1):
                for source in sources(n, h):
                    args = ["--h", str(h), *source]
                    code = call("reconstruct", *args, "--output", matrix)[0]
                    codes = (call("check", *args)[0], code, call("oracle", *args)[0])
                    assert codes == (code,) * 3 and code in (0, 1), (args, codes)
                    if code == 0:
                        assert call("verify", *args, "--matrix", matrix)[0] == 0, args
                    walked += 1
        assert walked == 937
