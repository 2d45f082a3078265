"""SHA-256 digests of the CLI's output contract over every small instance.

Walks every regular list (v,)*n with 0 <= v <= C(n-1,h-1)+1 and every
span-one list (v,)*n0 + (v-1,)*n1 with n0, n1 >= 1 and 1 <= v <= C(n-1,h-1)+1,
for 1 <= h <= n <= --max-n; feasible or not. Each list runs, in this process,
through `check`, `reconstruct` (in each of the four formats when `check`
exits 0, else as `lines` alone) and, when the `lines` witness was written,
`verify` of it; lists with n <= 6 also through `oracle`. Each (n, h) also
runs the commands that take no degree list: `count` and `gen` of both word
kinds, `gen` also with `--limit 3`, which reads across the first two batches
of its stream (1 and 2 words), and, for h < n, `bipartite --k h` in each
format. One digest per (n, h) and command covers stdout, stderr and the exit
code of every run in walk order.

    PYTHONPATH=src python tools/cli_digests.py --max-n 10 > digests.json
    PYTHONPATH=src python tools/cli_digests.py --max-n 14 --check tests/data/cli_digests_n14.json

With --check the script exits 1 and names every (n, h) and command whose
digest differs from the file. A change meant to alter the output records
the file again and says so.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

from hyperdeg.cli import main

FORMATS = ("lines", "csv", "json", "edges")
COMMANDS = ("check", *(f"reconstruct-{fmt}" for fmt in FORMATS), "verify")
# The largest n whose lists also run through the exhaustive `oracle`.
ORACLE_MAX_N = 6


def _run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the CLI on argv; a parser exit is its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def _sources(n: int, h: int):
    """The degree-source arguments of every list walked for (n, h): regular
    lists through --n/--v, span-one lists through --degrees, nonincreasing."""
    top = math.comb(n - 1, h - 1) + 1
    for v in range(top + 1):
        yield ["--n", str(n), "--v", str(v)]
    for v in range(1, top + 1):
        for n0 in range(1, n):
            yield ["--degrees", ",".join([str(v)] * n0 + [str(v - 1)] * (n - n0))]


def _word_and_bipartite_runs(n: int, h: int):
    """(command, argv) of each run for (n, h) that takes no degree list."""
    size = ["--n", str(n), "--h", str(h)]
    for kind in ("lyndon", "necklace"):
        yield f"count-{kind}", ["count", *size, "--kind", kind]
        yield f"gen-{kind}", ["gen", *size, "--kind", kind]
        yield f"gen-{kind}-limit-3", ["gen", *size, "--kind", kind, "--limit", "3"]
    if h < n:
        for fmt in FORMATS:
            yield f"bipartite-{fmt}", ["bipartite", "--n", str(n), "--k", str(h), "--format", fmt]


def _feed(digest, source: list[str], result: tuple[int, str, str]) -> None:
    code, out, err = result
    digest.update(f"{' '.join(source)}\n{code}\n{len(out)}\n{out}{len(err)}\n{err}".encode())


def digests(max_n: int) -> dict[str, dict[str, str]]:
    """{"n,h": {command: hex digest}} for 1 <= h <= n <= max_n."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        matrix = os.path.join(tmp, "witness.lines")
        for n in range(1, max_n + 1):
            for h in range(1, n + 1):
                commands = COMMANDS + (("oracle",) if n <= ORACLE_MAX_N else ())
                hashes = {command: hashlib.sha256() for command in commands}
                for source in _sources(n, h):
                    degree_args = ["--h", str(h), *source]
                    checked = _run(["check", *degree_args])
                    _feed(hashes["check"], source, checked)
                    if "oracle" in hashes:
                        _feed(hashes["oracle"], source, _run(["oracle", *degree_args]))
                    # An infeasible list stops before the format is read.
                    for fmt in FORMATS if checked[0] == 0 else FORMATS[:1]:
                        result = _run(["reconstruct", *degree_args, "--format", fmt])
                        _feed(hashes[f"reconstruct-{fmt}"], source, result)
                        if fmt == "lines" and result[0] == 0:
                            with open(matrix, "w", encoding="utf-8") as handle:
                                handle.write(result[1])
                            verified = _run(["verify", *degree_args, "--matrix", matrix])
                            _feed(hashes["verify"], source, verified)
                for command, argv in _word_and_bipartite_runs(n, h):
                    hashes[command] = hashlib.sha256()
                    _feed(hashes[command], argv, _run(argv))
                found[f"{n},{h}"] = {name: digest.hexdigest() for name, digest in hashes.items()}
    return found


def _differences(found: dict, recorded: dict) -> list[str]:
    return [
        f"{key} {command}"
        for key in sorted(found.keys() | recorded.keys())
        for command in sorted(found.get(key, {}).keys() | recorded.get(key, {}).keys())
        if found.get(key, {}).get(command) != recorded.get(key, {}).get(command)
    ]


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, required=True, help="largest vertex count walked")
    parser.add_argument("--check", metavar="FILE", help="compare with this file, print nothing")
    args = parser.parse_args(argv)
    found = digests(args.max_n)
    if args.check is None:
        print(json.dumps(found, indent=1, sort_keys=True))
        return 0
    with open(args.check, encoding="utf-8") as handle:
        differences = _differences(found, json.load(handle))
    for line in differences:
        print(f"digest differs: n,h={line}", file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(_main())
