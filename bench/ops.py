"""The workloads' ops, run plain or traced, and the checks on their outputs.

A plain op is one call of a public entry point: `realize`,
`check_degree_sequence`, or `hyperdeg.cli.main` for `reconstruct --output`
followed by `verify --matrix`. A traced op makes the same public calls one
layer at a time with a span around each. Calls made inside
`rec_*_with_plan` and inside the CLI cannot be seen from here, so after the
real call they are replayed from the returned plan (Lyndon words pulled,
classes and blocks expanded, the lifted regular build of a span-one
instance) and timed as spans marked `replayed`: estimates, not measurements
of the real call.

Plain and traced ops reach each library call through the same number of
Python frames, since the RecursionError boundary of Lyndon generation near
n = 1000 depends on stack depth.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checker import edges_problem, edges_to_rows, rows_problem, verdict_problem, witness_digest

LIMIT_S = 30.0  # per-op limit: a failed op enters the latency samples at LIMIT_S plus its own time


@dataclass
class Sample:
    seconds: float
    failure: str | None = None  # why the op failed; None on success
    wrong: bool = False  # the op returned an output the checker rejected
    cells: int = 0  # witness cells (rows x n) delivered; degree entries for decide
    at: float = 0.0  # perf_counter at the op's midpoint
    scale: float = 1.0  # host-speed scale of `seconds` (see calibrate.py)

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale

    @property
    def latency(self) -> float:
        """Scaled seconds as ranked: a failure ranks above every success."""
        return self._ranked(self.scaled)

    @property
    def raw_latency(self) -> float:
        return self._ranked(self.seconds)

    def _ranked(self, seconds: float) -> float:
        return seconds if self.failure is None else LIMIT_S + seconds


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    replayed: bool
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced run, kept in memory until the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.totals: Counter = Counter()  # busy seconds per span name + "_s", and counts
        self.op = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, parent: Span | None = None, replayed: bool = False):
        if parent is not None:
            parent_id = parent.id
        else:
            parent_id = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, self.op, parent_id, replayed)
        self.spans.append(rec)
        self._open.append(rec.id)
        rec.start = perf_counter()
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._open.pop()
            self.totals[name + "_s"] += rec.seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.totals[name] += amount

    def to_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def _one_frame_down(fn, *args):
    """fn(*args) one frame further down the stack."""
    return fn(*args)


def _raised_in(exc: BaseException, module: str) -> bool:
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    return tb is not None and Path(tb.tb_frame.f_code.co_filename).stem == module


def _failure(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}"


class WitnessGuard:
    """Checks each witness the first time an instance produces it: the
    structural checks, then the stored SHA-256 of the rows when the instance
    has one. Later outputs of the same instance must repeat the first
    byte for byte."""

    def __init__(self, digests: dict[str, str]) -> None:
        self.digests = digests
        self.computed: dict[str, str] = {}  # instance key -> rows digest
        self._seen: dict[str, str] = {}  # instance key -> fingerprint of the first output

    def check(self, inst, fingerprint: str, problem_of, rows_of) -> str | None:
        """`problem_of()` runs the structural checks and `rows_of()` gives the
        rows; both run only on an instance's first output."""
        first = self._seen.get(inst.key)
        if first is not None:
            return None if first == fingerprint else "output differs from an earlier run of this instance"
        problem = problem_of()
        if problem is None:
            digest = witness_digest(rows_of())
            self.computed[inst.key] = digest
            stored = self.digests.get(inst.key)
            if stored is not None and stored != digest:
                problem = "witness differs from the stored SHA-256"
        if problem is None:
            self._seen[inst.key] = fingerprint
        return problem


class Replayer:
    """Replays the calls a reconstruction made, from its plan, under spans
    marked `replayed`."""

    def __init__(self, hd, tracer: Tracer) -> None:
        self.hd = hd
        self.t = tracer

    def build(self, built, span: Span) -> None:
        """Children of a rec_*_with_plan call that took `span`."""
        hd, t = self.hd, self.t
        inst = built.instance
        n = inst.n
        if isinstance(built, hd.SpanOneReconstruction):
            lifted = hd.RegularInstance(n=n, m=built.lifted_rows, h=inst.h, v=built.lifted_degree)
            with t.span("reconstruct.lifted_build", span, True) as lift:
                hd.rec_regular_with_plan(lifted)
            t.count("reconstruct.span_one_post_s", span.seconds - lift.seconds)
        rows: list[str] = []
        children = 0.0
        for level in built.levels:
            children += self._level(level, rows, span)
        if built.levels:
            with t.span("words.matrix", span, True) as mat:
                hd.BinaryMatrix(tuple(rows), n)
            children += mat.seconds
        t.count("reconstruct.self_s", span.seconds - children)
        t.count("reconstruct.rows_built", len(rows))
        t.count("reconstruct.rows_kept", built.matrix.nrows)
        t.count("words.rows_expanded", len(rows))
        t.count("words.chars_computed", len(rows) * n)

    def _level(self, level, rows: list[str], span: Span) -> float:
        hd, t = self.hd, self.t
        d, length, dens = level.divisor, level.length, level.density
        with t.span("necklaces.count", span, True) as count:
            hd.count_lyndon(length, dens)
        reserved = "0" * (length - dens) + "1" * dens
        words: list[str] = []
        pulled = 0
        with t.span("necklaces.gen", span, True) as gen:
            for word in hd.gen_lyndon(length, dens):
                pulled += 1
                if len(words) == level.full_words:
                    break
                if word == reserved and level.partial_blocks:
                    continue
                words.append(word)
        with t.span("words.expand", span, True) as expand:
            for word in words:
                rows.extend(hd.shift_matrix(word * d).rows)
            for j in range(level.partial_blocks):
                rows.extend(row * d for row in hd.block_submatrix(length, dens, j).rows)
        t.count("necklaces.words_pulled", pulled)
        t.count("necklaces.words_expanded", len(words))
        return count.seconds + gen.seconds + expand.seconds

    def validate(self, hg, span: Span) -> None:
        """The Hypergraph re-check that from_incidence ran inside `span`."""
        with self.t.span("hypergraphs.validate", span, True):
            self.hd.Hypergraph(hg.n, hg.edges)
        self.t.count("hypergraphs.edges", len(hg.edges))


class RealizeOp:
    """`realize` on regular or span-one degree sequences."""

    def __init__(self, hd, guard: WitnessGuard) -> None:
        self.hd = hd
        self.guard = guard

    def run(self, inst, tracer: Tracer | None = None) -> dict[str, Sample]:
        degrees = inst.degrees
        start = perf_counter()
        try:
            if tracer is None:
                result = self.hd.realize(degrees, inst.h)
                seconds = perf_counter() - start
                hg = result.hypergraph if result.status == "realized" else None
            else:
                seconds, hg = self._traced(inst, degrees, tracer)
        except Exception as exc:  # the op failed; record it and go on
            return {"op": Sample(perf_counter() - start, _failure(exc))}
        if hg is None:
            return {"op": Sample(seconds, "not realized", wrong=True)}
        problem = self.guard.check(
            inst,
            hashlib.sha256(repr(hg.edges).encode()).hexdigest(),
            lambda: edges_problem(hg.edges, inst.n, inst.h, degrees),
            lambda: edges_to_rows(hg.edges, inst.n),
        )
        if problem:
            return {"op": Sample(seconds, problem, wrong=True)}
        return {"op": Sample(seconds, cells=len(hg.edges) * inst.n)}

    def _traced(self, inst, degrees, t: Tracer):
        hd = self.hd
        build = hd.rec_regular_with_plan if inst.verdict.kind == "regular" else hd.rec_span_one_with_plan
        hg = None
        with t.span("op") as op:
            values = tuple(sorted((int(d) for d in degrees), reverse=True))
            with t.span("feasibility.check"):
                check = hd.check_degree_sequence(values, inst.h)
            if check.result.feasible:
                with t.span("reconstruct.build") as build_span:
                    # _traced and this call stand in for realize -> rec_*.
                    built = _one_frame_down(build, check.instance)
                with t.span("hypergraphs.from_incidence") as incidence_span:
                    hg = hd.from_incidence(built.matrix)
        t.count("feasibility.calls")
        if hg is not None:
            replay = Replayer(hd, t)
            replay.build(built, build_span)
            replay.validate(hg, incidence_span)
        return op.seconds, hg


class DecideOp:
    """`check_degree_sequence`, compared with the reference decider."""

    def __init__(self, hd) -> None:
        self.hd = hd

    def run(self, inst, tracer: Tracer | None = None) -> dict[str, Sample]:
        degrees = inst.degrees
        start = perf_counter()
        try:
            if tracer is None:
                check = self.hd.check_degree_sequence(degrees, inst.h)
                seconds = perf_counter() - start
            else:
                with tracer.span("op") as op:
                    with tracer.span("feasibility.check"):
                        check = self.hd.check_degree_sequence(degrees, inst.h)
                tracer.count("feasibility.calls")
                seconds = op.seconds
        except Exception as exc:  # the op failed; record it and go on
            return {"op": Sample(perf_counter() - start, _failure(exc))}
        problem = verdict_problem(inst.verdict, check.kind, check.result)
        if problem:
            return {"op": Sample(seconds, problem, wrong=True)}
        return {"op": Sample(seconds, cells=inst.n)}


class RoundTripOp:
    """`hyperdeg reconstruct --output` then `hyperdeg verify --matrix` on the
    witness just written, both through hyperdeg.cli.main in this process.
    The op's latency is the round trip; the write and the read are also
    kept apart."""

    def __init__(self, hd, guard: WitnessGuard, workdir: Path, main=None) -> None:
        self.hd = hd
        self.guard = guard
        self.main = main if main is not None else hd.cli.main
        self.written = workdir / "witness.out"
        self.lines = workdir / "witness.lines"

    def _cli(self, argv: list[str], tracer: Tracer | None, name: str):
        """(exit status or None, stdout, exception, seconds, span) of
        main(argv); the span is None when untraced. An exception escaping
        main would end a real process with status 1."""
        out = io.StringIO()
        span = tracer.span(name) if tracer is not None else contextlib.nullcontext()
        status = exc = rec = None
        start = perf_counter()
        try:
            with span as rec, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = self.main(argv)
        except SystemExit as stop:  # argparse rejected the arguments
            status = stop.code
        except Exception as crash:  # the command crashed; record it and go on
            exc = crash
        return status, out.getvalue(), exc, perf_counter() - start, rec

    def run(self, inst, tracer: Tracer | None = None) -> dict[str, Sample]:
        for path in (self.written, self.lines):
            path.unlink(missing_ok=True)
        argv = ["reconstruct", "--h", str(inst.h), *inst.degree_args(), "--format", inst.fmt, "--output", str(self.written)]
        status, _, exc, seconds, span = self._cli(argv, tracer, "cli.write")
        write = self._judge_write(inst, status, exc, seconds)
        if tracer is not None:
            self._trace_write(inst, tracer, span, status, exc, write)
        argv = ["verify", "--h", str(inst.h), *inst.degree_args(), "--matrix", str(self.lines)]
        status, stdout, exc, seconds, span = self._cli(argv, tracer, "cli.read")
        read = Sample(seconds)
        if write.failure:
            read.failure = "write failed"
        elif exc is not None:
            read.failure = _failure(exc)
        elif status != 0:
            read.failure = f"exit {status}"
        elif json.loads(stdout) != {"valid": True, "problem": None}:
            read.failure, read.wrong = f"rejected a checked witness: {stdout.strip()}", True
        if tracer is not None:
            self._trace_read(inst, tracer, span, status, exc)
        trip = Sample(write.seconds + read.seconds, write.failure or read.failure, write.wrong or read.wrong)
        trip.cells = write.cells if trip.failure is None else 0
        return {"op": trip, "write": write, "read": read}

    def _judge_write(self, inst, status, exc, seconds) -> Sample:
        if exc is not None:
            return Sample(seconds, _failure(exc))
        if status != 0:
            # Every instance here is feasible, so any nonzero exit is a failure,
            # exit 1 included: it is not an "infeasible" verdict to accept.
            return Sample(seconds, f"exit {status}")
        data = self.written.read_bytes()
        text = data.decode()
        if inst.fmt == "edges":
            edges = [tuple(map(int, line.split())) for line in text.splitlines()]
            rows = edges_to_rows(edges, inst.n)
            problem_of = lambda: edges_problem(edges, inst.n, inst.h, inst.degrees)  # noqa: E731
        else:
            rows = text.splitlines()
            problem_of = lambda: rows_problem(rows, inst.n, inst.h, inst.degrees)  # noqa: E731
        problem = self.guard.check(inst, hashlib.sha256(data).hexdigest(), problem_of, lambda: rows)
        if problem:
            return Sample(seconds, problem, wrong=True)
        self.lines.write_text("\n".join(rows) + "\n")
        return Sample(seconds, cells=len(rows) * inst.n)

    def _trace_write(self, inst, t: Tracer, span: Span, status, exc, write: Sample) -> None:
        hd = self.hd
        replayed = 0.0
        if write.failure is None:
            replay = Replayer(hd, t)
            degrees = inst.degrees
            with t.span("feasibility.check", span, True) as check_span:
                check = hd.check_degree_sequence(degrees, inst.h)
            t.count("feasibility.calls")
            build = hd.rec_regular_with_plan if check.kind == "regular" else hd.rec_span_one_with_plan
            with t.span("reconstruct.build", span, True) as build_span:
                built = build(check.instance)
            replay.build(built, build_span)
            replayed = check_span.seconds + build_span.seconds
            if inst.fmt == "edges":
                with t.span("hypergraphs.from_incidence", span, True) as incidence_span:
                    hg = hd.from_incidence(built.matrix)
                replay.validate(hg, incidence_span)
                replayed += incidence_span.seconds
            t.count("cli.bytes_written", self.written.stat().st_size)
        self._count_exit(t, status, exc)
        t.count("cli.write_self_s", span.seconds - replayed)

    def _trace_read(self, inst, t: Tracer, span: Span, status, exc) -> None:
        hd = self.hd
        replayed = 0.0
        if status == 0:
            degrees = inst.degrees
            with t.span("feasibility.check", span, True) as check_span:
                check = hd.check_degree_sequence(degrees, inst.h)
            t.count("feasibility.calls")
            rows = [line.strip() for line in self.lines.read_text().splitlines() if line.strip()]
            with t.span("words.matrix", span, True) as matrix_span:
                matrix = hd.BinaryMatrix(tuple(rows), len(rows[0]))
            with t.span("reconstruct.verify", span, True) as verify_span:
                hd.verify(matrix, check.instance)
            replayed = check_span.seconds + matrix_span.seconds + verify_span.seconds
            t.count("cli.bytes_read", os.path.getsize(self.lines))
        self._count_exit(t, status, exc)
        t.count("cli.read_self_s", span.seconds - replayed)

    @staticmethod
    def _count_exit(t: Tracer, status, exc) -> None:
        if exc is not None or status != 0:
            t.count("cli.nonzero_exits")
        if isinstance(exc, RecursionError) and _raised_in(exc, "necklaces"):
            t.count("necklaces.recursion_failures")
