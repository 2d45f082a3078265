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
import json
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from typing import TextIO

from .feasibility import check_degree_sequence
from .hypergraphs import Hypergraph
from .necklaces import count_lyndon, count_necklaces, gen_lyndon, gen_necklaces
from .oracle import exists_distinct_rows
from .reconstruct import (
    _BUILDERS,
    RegularReconstruction,
    SpanOneReconstruction,
    VerifyResult,
    _bipartite,
    verify,
)
from .words import BinaryMatrix

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _parse_degrees_text(text: str) -> tuple[int, ...]:
    parts = list(filter(None, map(str.strip, text.split(","))))
    if not parts:
        raise ValueError("no degrees given")
    return tuple(map(int, parts))


def _read_degrees_file(path: str) -> tuple[int, ...]:
    with open(path, encoding="utf-8") as handle:
        lines = list(filter(None, map(str.strip, handle)))
    if not lines:
        raise ValueError(f"degree file {path} is empty")
    return tuple(map(int, lines))


def _degrees_from_args(args: argparse.Namespace) -> tuple[int, ...]:
    """Resolve the degree source options to a nonincreasing vector."""
    if getattr(args, "degrees", None) is not None:
        raw = _parse_degrees_text(args.degrees)
    elif getattr(args, "degrees_file", None) is not None:
        raw = _read_degrees_file(args.degrees_file)
    elif getattr(args, "n", None) is not None and getattr(args, "v", None) is not None:
        if args.n < 1:
            raise ValueError("--n must be positive")
        if args.v < 0:
            raise ValueError("--v must be nonnegative")
        raw = (args.v,) * args.n
    else:
        raise ValueError("give --degrees, --degrees-file, or both --n and --v")
    ordered = tuple(sorted(raw, reverse=True))
    if ordered != raw:
        print("note: degrees sorted nonincreasingly", file=sys.stderr)
    return ordered


def _add_degree_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--degrees", help="comma-separated degree list")
    parser.add_argument("--degrees-file", help="file with one degree per line")
    parser.add_argument("--n", type=int, help="column count (with --v: regular instance)")
    parser.add_argument("--v", type=int, help="uniform degree (with --n)")


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The file at `path`, opened for writing, or stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    else:
        yield sys.stdout


# Per matrix format: the text of one row, and what separates two rows.
_ROW_TEXT = {"lines": (str, "\n"), "csv": (",".join, "\n"), "json": ('"{}"'.format, ", ")}


def _write_rows(
    out: TextIO,
    blocks: Iterable[Sequence[str]],
    fmt: str,
    n: int,
    m: int,
    h: int,
    plan: dict | None = None,
) -> None:
    """Write m rows of n '0'/'1' symbols, given in nonempty blocks, as `fmt`
    (lines, csv or json) and a closing newline. Only one block is held as
    text at a time; the bytes are those of the whole matrix rendered at once,
    so no rows give a lone newline."""
    row_text, sep = _ROW_TEXT[fmt]
    if fmt == "json":
        out.write(json.dumps({"n": n, "m": m, "h": h})[:-1] + ', "rows": [')
    between = ""
    for block in blocks:
        out.write(between)
        out.write(sep.join(map(row_text, block)))
        between = sep
    if fmt == "json":
        out.write("]" + ("" if plan is None else f', "plan": {json.dumps(plan)}') + "}")
    out.write("\n")


def _write_built(
    path: str | None,
    built: RegularReconstruction | SpanOneReconstruction,
    fmt: str,
    plan: dict | None,
) -> None:
    """Write a checked construction as `fmt`: its edges, or its rows straight
    from the plan whose edges were checked."""
    inst = built.instance
    with _output(path) as out:
        if fmt == "edges":
            out.writelines((Hypergraph._trusted(inst.n, built.edges).to_edges_text(), "\n"))
        else:
            _write_rows(out, built.row_blocks(), fmt, inst.n, inst.m, inst.h, plan)


def cmd_count(args: argparse.Namespace) -> int:
    counter = count_lyndon if args.kind == "lyndon" else count_necklaces
    print(counter(args.n, args.h))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    stream = gen_lyndon(args.n, args.h) if args.kind == "lyndon" else gen_necklaces(args.n, args.h)
    emitted = 0
    for word in stream:
        if args.limit is not None and emitted >= args.limit:
            break
        print(word)
        emitted += 1
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    degrees = _degrees_from_args(args)
    check = check_degree_sequence(degrees, args.h)
    if check.kind == "unsupported":
        print(json.dumps({"supported": False, "reason": "span>1"}))
        print("degree sequence spans more than two values", file=sys.stderr)
        return EXIT_NEGATIVE
    assert check.result is not None
    print(json.dumps(check.result.to_json_dict()))
    return EXIT_OK if check.result.feasible else EXIT_NEGATIVE


def cmd_reconstruct(args: argparse.Namespace) -> int:
    degrees = _degrees_from_args(args)
    check = check_degree_sequence(degrees, args.h)
    if check.kind == "unsupported":
        print("unsupported degree class: span>1", file=sys.stderr)
        return EXIT_NEGATIVE
    assert check.result is not None
    if not check.result.feasible:
        print(f"infeasible: {check.result.violated}", file=sys.stderr)
        return EXIT_NEGATIVE
    built = _BUILDERS[type(check.instance)](check.instance)
    _write_built(args.output, built, args.format, built.plan_json())
    return EXIT_OK


def _read_matrix_lines(path: str, n: int) -> BinaryMatrix:
    """The matrix in a file of one row per line; a file with no rows is the
    matrix of no rows and n columns, as `reconstruct` writes for m = 0."""
    with open(path, encoding="utf-8") as handle:
        rows = list(filter(None, map(str.strip, handle)))
    return BinaryMatrix(tuple(rows), len(rows[0]) if rows else n)


def cmd_verify(args: argparse.Namespace) -> int:
    degrees = _degrees_from_args(args)
    check = check_degree_sequence(degrees, args.h)
    if check.kind == "unsupported":
        raise ValueError("cannot verify against this degree sequence")
    matrix = _read_matrix_lines(args.matrix, len(degrees))
    # A sequence with no integral row count has no instance: no shape fits it.
    result = verify(matrix, check.instance) if check.instance else VerifyResult(False, "shape")
    print(json.dumps({"valid": result.ok, "problem": result.problem}))
    return EXIT_OK if result.ok else EXIT_NEGATIVE


def cmd_bipartite(args: argparse.Namespace) -> int:
    _write_built(args.output, _bipartite(args.n, args.k), args.format, None)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    degrees = _degrees_from_args(args)
    result = exists_distinct_rows(len(degrees), args.h, degrees)
    witness = list(result.witness.rows) if result.witness is not None else None
    print(json.dumps({"exists": result.exists, "witness": witness}))
    return EXIT_OK if result.exists else EXIT_NEGATIVE


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

    p_count = sub.add_parser("count", help="count necklaces or Lyndon words")
    p_count.add_argument("--n", type=int, required=True, help="word length")
    p_count.add_argument("--h", type=int, required=True, help="word density")
    p_count.add_argument("--kind", choices=("lyndon", "necklace"), required=True)

    p_gen = sub.add_parser("gen", help="generate necklaces or Lyndon words")
    p_gen.add_argument("--n", type=int, required=True, help="word length")
    p_gen.add_argument("--h", type=int, required=True, help="word density")
    p_gen.add_argument("--kind", choices=("lyndon", "necklace"), required=True)
    p_gen.add_argument("--limit", type=int, help="stop after this many words")

    p_check = sub.add_parser("check", help="feasibility of a degree sequence")
    p_check.add_argument("--h", type=int, required=True, help="edge size / row sum")
    _add_degree_source(p_check)

    p_rec = sub.add_parser("reconstruct", help="build a witness incidence matrix")
    p_rec.add_argument("--h", type=int, required=True, help="edge size / row sum")
    _add_degree_source(p_rec)
    p_rec.add_argument(
        "--format", choices=("lines", "csv", "json", "edges"), default="lines"
    )
    p_rec.add_argument("--output", help="write to this path instead of stdout")

    p_ver = sub.add_parser("verify", help="check a matrix against a degree sequence")
    p_ver.add_argument("--h", type=int, required=True, help="edge size / row sum")
    _add_degree_source(p_ver)
    p_ver.add_argument("--matrix", required=True, help="matrix file, one row per line")

    p_bip = sub.add_parser(
        "bipartite", help="twin-free k-regular bipartite biadjacency matrix"
    )
    p_bip.add_argument("--n", type=int, required=True, help="vertices per side")
    p_bip.add_argument("--k", type=int, required=True, help="vertex degree")
    p_bip.add_argument(
        "--format", choices=("lines", "csv", "json", "edges"), default="lines"
    )
    p_bip.add_argument("--output", help="write to this path instead of stdout")

    p_oracle = sub.add_parser(
        "oracle", help="small-instance exhaustive existence search"
    )
    p_oracle.add_argument("--h", type=int, required=True, help="edge size / row sum")
    _add_degree_source(p_oracle)

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
