"""Command-line interface.

Subcommands: count, gen, check, reconstruct, verify, bipartite, oracle.
Machine-readable output goes to stdout, diagnostics to stderr. Exit codes:
0 success/feasible, 1 infeasible or unsupported class, 2 usage or I/O error,
3 internal error, including any unexpected exception.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import operator
import re
import sys
from collections.abc import Iterable, Sequence

from .feasibility import check_degree_sequence
from .necklaces import count_lyndon, count_necklaces, gen_lyndon, gen_necklaces
from .reconstruct import (
    _BUILDERS,
    RegularReconstruction,
    SpanOneReconstruction,
    _bipartite,
    verify,
)
from .words import BinaryMatrix

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _degree_list(items: Iterable[str], empty: str) -> tuple[int, ...]:
    """The degrees in `items`, one per item, blank items skipped, in the order
    read; `empty` is the error when none is left. A list out of order gets a
    note on stderr: the library takes it as that list sorted nonincreasingly."""
    degrees = tuple(map(int, filter(None, map(str.strip, items))))
    if not degrees:
        raise ValueError(empty)
    if any(map(operator.lt, degrees, itertools.islice(degrees, 1, None))):
        print("note: degrees sorted nonincreasingly", file=sys.stderr)
    return degrees


def _degrees_from_args(args: argparse.Namespace) -> tuple[int, ...]:
    """Resolve the degree source options to the tuple of degrees read or
    built, passed on in the order given: the library decides a list in any
    order, and only `oracle` sorts what it is handed. A degree file's
    byte-order mark is skipped."""
    if args.degrees is not None:
        return _degree_list(args.degrees.split(","), "no degrees given")
    if args.degrees_file is not None:
        with open(args.degrees_file, encoding="utf-8-sig") as handle:
            return _degree_list(handle, f"degree file {args.degrees_file} is empty")
    if args.n is not None and args.v is not None:
        try:
            return (args.v,) * args.n
        except (OverflowError, MemoryError):
            raise ValueError(f"--n {args.n} is too large for a degree list") from None
    raise ValueError("give --degrees, --degrees-file, or both --n and --v")


# Per output format: the text of one row of h ones ('0'/'1' symbols, or for
# `edges` one edge's vertices, through one "%d" per vertex), and what
# separates two rows.
_FORMATS = {
    "lines": (lambda h: str, "\n"),
    "csv": (lambda h: lambda row: row.replace("", ",")[1:-1], "\n"),
    "json": (lambda h: '"{}"'.format, ", "),
    "edges": (lambda h: " ".join(["%d"] * h).__mod__, "\n"),
}


def _write_built(
    path: str | None,
    built: RegularReconstruction | SpanOneReconstruction,
    fmt: str,
    plan: dict | None,
) -> None:
    """Write a checked construction as `fmt` and a closing newline: its
    edges as one block, emitted for this format only, or its rows straight
    from the checked plan, a block at a time. Only one block is held as text
    at a time; the bytes are those of the whole output rendered at once, so
    no rows give a lone newline."""
    inst = built.instance
    text_of, sep = _FORMATS[fmt]
    row_text = text_of(inst.h)
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as out:
        if fmt == "json":
            out.write(json.dumps({"n": inst.n, "m": inst.m, "h": inst.h})[:-1] + ', "rows": [')
        between = ""
        for block in (built.edges,) if fmt == "edges" else built.row_blocks():
            out.write(between)
            out.write(sep.join(map(row_text, block)))
            between = sep
        if fmt == "json":
            out.write("]" + ("" if plan is None else f', "plan": {json.dumps(plan)}') + "}")
        out.write("\n")


def _refuse_span_over_one() -> int:
    """Report a sequence of more than two degree values as unsupported."""
    print("unsupported degree class: span>1", file=sys.stderr)
    return EXIT_NEGATIVE


# Per word kind: its counter and its generator.
_WORDS = {"lyndon": (count_lyndon, gen_lyndon), "necklace": (count_necklaces, gen_necklaces)}


def cmd_count(args: argparse.Namespace) -> int:
    counter, _ = _WORDS[args.kind]
    print(counter(args.n, args.h))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    _, generate = _WORDS[args.kind]
    # Exactly --limit words are pulled; a limit below zero takes none, and one
    # past sys.maxsize (more than any stream holds) takes them all.
    limit = None if args.limit is None else min(max(args.limit, 0), sys.maxsize)
    for word in itertools.islice(generate(args.n, args.h), limit):
        print(word)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    degrees = _degrees_from_args(args)
    check = check_degree_sequence(degrees, args.h)
    if check.kind == "unsupported":
        print(json.dumps({"supported": False, "reason": "span>1"}))
        return _refuse_span_over_one()
    assert check.result is not None
    print(json.dumps(check.result.to_json_dict()))
    return EXIT_OK if check.result.feasible else EXIT_NEGATIVE


def cmd_reconstruct(args: argparse.Namespace) -> int:
    degrees = _degrees_from_args(args)
    check = check_degree_sequence(degrees, args.h)
    if check.kind == "unsupported":
        return _refuse_span_over_one()
    assert check.result is not None
    if not check.result.feasible:
        print(f"infeasible: {check.result.violated}", file=sys.stderr)
        return EXIT_NEGATIVE
    built = _BUILDERS[type(check.instance)](check.instance)
    _write_built(args.output, built, args.format, built.plan_json())
    return EXIT_OK


def _read_matrix_lines(path: str, n: int) -> BinaryMatrix:
    """The matrix in a file of one row per line, a byte-order mark skipped;
    a file with no rows is the matrix of no rows and n columns, as
    `reconstruct` writes for m = 0."""
    with open(path, encoding="utf-8-sig") as handle:
        rows = tuple(filter(None, map(str.strip, handle)))
    return BinaryMatrix(rows, len(rows[0]) if rows else n)


def cmd_verify(args: argparse.Namespace) -> int:
    degrees = _degrees_from_args(args)
    check = check_degree_sequence(degrees, args.h)
    if check.kind == "unsupported":
        return _refuse_span_over_one()
    matrix = _read_matrix_lines(args.matrix, len(degrees))
    result = verify(matrix, check.instance)
    print(json.dumps({"valid": result.ok, "problem": result.problem}))
    return EXIT_OK if result.ok else EXIT_NEGATIVE


def cmd_bipartite(args: argparse.Namespace) -> int:
    _write_built(args.output, _bipartite(args.n, args.k), args.format, None)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    # Imported here: no other command needs the exhaustive search.
    from .oracle import exists_distinct_rows

    # The witness columns follow the list, so this command alone sorts it.
    degrees = sorted(_degrees_from_args(args), reverse=True)
    result = exists_distinct_rows(len(degrees), args.h, degrees)
    witness = list(result.witness.rows) if result.witness is not None else None
    print(json.dumps({"exists": result.exists, "witness": witness}))
    return EXIT_OK if result.exists else EXIT_NEGATIVE


def _degree_command(sub, name: str, help: str) -> argparse.ArgumentParser:
    """A subcommand that takes an edge size and one degree source."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--h", type=int, required=True, help="edge size / row sum")
    parser.add_argument("--degrees", help="comma-separated degree list")
    parser.add_argument("--degrees-file", help="file with one degree per line")
    parser.add_argument("--n", type=int, help="column count (with --v: regular instance)")
    parser.add_argument("--v", type=int, help="uniform degree (with --n)")
    return parser


def _word_command(sub, name: str, help: str) -> argparse.ArgumentParser:
    """A subcommand over the density-h words of length n of one kind."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--n", type=int, required=True, help="word length")
    parser.add_argument("--h", type=int, required=True, help="word density")
    parser.add_argument("--kind", choices=tuple(_WORDS), required=True)
    return parser


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=tuple(_FORMATS), default="lines")
    parser.add_argument("--output", help="write to this path instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperdeg",
        description=(
            "Decide and construct uniform-hypergraph realizations of regular "
            "and almost-regular degree sequences"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _word_command(sub, "count", "count necklaces or Lyndon words")
    p_gen = _word_command(sub, "gen", "generate necklaces or Lyndon words")
    p_gen.add_argument("--limit", type=int, help="stop after this many words")
    _degree_command(sub, "check", "feasibility of a degree sequence")
    _add_output(_degree_command(sub, "reconstruct", "build a witness incidence matrix"))
    p_ver = _degree_command(sub, "verify", "check a matrix against a degree sequence")
    p_ver.add_argument("--matrix", required=True, help="matrix file, one row per line")
    p_bip = sub.add_parser("bipartite", help="twin-free k-regular bipartite biadjacency matrix")
    p_bip.add_argument("--n", type=int, required=True, help="vertices per side")
    p_bip.add_argument("--k", type=int, required=True, help="vertex degree")
    _add_output(p_bip)
    _degree_command(sub, "oracle", "small-instance exhaustive existence search")
    return parser


# A value that starts like a negative number; argparse takes it for an option.
_MINUS_DIGIT = re.compile(r"-\d")


def _attach_degree_values(argv: Sequence[str]) -> list[str]:
    """argv with `--degrees -<digit>...` passed as `--degrees=-<digit>...`, so
    that a list such as -1,2 reaches the degree check instead of argparse
    reporting `--degrees` without an argument."""
    attached: list[str] = []
    for arg in argv:
        if attached and attached[-1] == "--degrees" and _MINUS_DIGIT.match(arg):
            attached[-1] = f"--degrees={arg}"
        else:
            attached.append(arg)
    return attached


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(
        _attach_degree_values(sys.argv[1:] if argv is None else argv)
    )
    try:
        # Looked up per call, not bound in the cached parser: a replaced cmd_* is seen.
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
