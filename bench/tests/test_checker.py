"""Self-tests of the benchmark's checker and of how ops count failures.

    python3 -m pytest -q bench/tests
"""

import inspect

import pytest

import loader
from checker import Verdict, decide, edges_problem, rows_problem, verdict_problem
from ops import DecideOp, RealizeOp, RoundTripOp, Tracer, WitnessGuard
from workloads import _instance

# Every 2-subset of 4 vertices: 6 distinct rows, all degrees 3.
K4_ROWS = ["1100", "1010", "1001", "0110", "0101", "0011"]
K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_a_good_witness_passes():
    assert rows_problem(K4_ROWS, 4, 2, (3, 3, 3, 3)) is None
    assert edges_problem(K4_EDGES, 4, 2, (3, 3, 3, 3)) is None


def test_duplicated_row_is_rejected():
    rows = K4_ROWS[:5] + [K4_ROWS[0]]
    assert rows_problem(rows, 4, 2, (3, 3, 3, 3)) == "duplicate rows"
    assert edges_problem(K4_EDGES[:5] + [K4_EDGES[0]], 4, 2, (3, 3, 3, 3)) == "parallel edges"


def test_flipped_bit_is_rejected():
    rows = ["1110"] + K4_ROWS[1:]
    assert rows_problem(rows, 4, 2, (3, 3, 3, 3)) is not None


def test_wrong_degree_is_rejected():
    # Five distinct edges of K4 plus a 2-set on a 5th vertex: sizes and
    # distinctness hold, the degrees do not.
    degrees = (3, 3, 3, 2, 1)
    assert edges_problem(K4_EDGES[:5] + [(4, 5)], 5, 2, degrees) is None
    assert edges_problem(K4_EDGES, 5, 2, degrees) is not None
    assert rows_problem(K4_ROWS, 4, 2, (4, 3, 3, 2)) is not None


def test_decider_matches_hyperdeg_on_small_instances():
    hd = loader.load()
    for n in range(1, 9):
        for h in range(1, n + 1):
            for v in range(1, 12):
                for n1 in range(n):
                    degrees = (v,) * (n - n1) + (v - 1,) * n1
                    check = hd.check_degree_sequence(degrees, h)
                    assert verdict_problem(decide(degrees, h), check.kind, check.result) is None, (degrees, h)


class _Verdict:
    def __init__(self, feasible, violated, m):
        self.feasible, self.violated, self.m = feasible, violated, m


class _Check:
    def __init__(self, kind, result):
        self.kind, self.result = kind, result


def test_flipped_decide_verdict_is_rejected():
    expected = Verdict("regular", True, None, 6)
    assert verdict_problem(expected, "regular", _Verdict(True, None, 6)) is None
    assert verdict_problem(expected, "regular", _Verdict(False, "cond3", 6)) is not None

    class FlippingLibrary:
        @staticmethod
        def check_degree_sequence(degrees, h):
            return _Check("regular", _Verdict(False, "cond3", 6))

    inst = _instance("k4", 2, 4, 3)
    sample = DecideOp(FlippingLibrary()).run(inst)["op"]
    assert sample.failure and sample.wrong


def test_cli_exit_1_on_a_feasible_instance_is_a_failure(tmp_path):
    inst = _instance("k4", 2, 4, 3)
    assert inst.verdict.feasible
    op = RoundTripOp(None, WitnessGuard({}), tmp_path, main=lambda argv: 1)
    samples = op.run(inst)
    assert samples["write"].failure == "exit 1"
    assert samples["read"].failure == "write failed"
    assert samples["op"].failure and samples["op"].latency > 30


def test_cli_crash_is_a_failure_not_an_abort(tmp_path):
    def crash(argv):
        raise RecursionError("deep")

    op = RoundTripOp(None, WitnessGuard({}), tmp_path, main=crash)
    samples = op.run(_instance("k4", 2, 4, 3))
    assert samples["write"].failure == "raised RecursionError"
    assert not samples["write"].wrong


def test_real_round_trip_passes_the_checks(tmp_path):
    hd = loader.load()
    for fmt in ("lines", "edges"):
        inst = _instance("k", 3, 9, 5, 6, fmt)
        samples = RoundTripOp(hd, WitnessGuard({}), tmp_path).run(inst)
        assert samples["op"].failure is None, samples
        assert samples["op"].cells == 13 * 9


def test_stored_digest_mismatch_is_a_failure():
    hd = loader.load()
    inst = _instance("k4", 2, 4, 3)
    assert RealizeOp(hd, WitnessGuard({})).run(inst)["op"].failure is None
    sample = RealizeOp(hd, WitnessGuard({inst.key: "0" * 64})).run(inst)["op"]
    assert sample.failure and sample.wrong


def _depths(op, inst, record):
    op.run(inst)
    plain = list(record)
    record.clear()
    op.run(inst, Tracer())
    return plain, list(record)


def test_cli_is_called_at_the_same_depth_plain_and_traced(tmp_path):
    depths = []

    def main(argv):
        depths.append(len(inspect.stack()))
        return 1

    plain, traced = _depths(RoundTripOp(None, WitnessGuard({}), tmp_path, main=main), _instance("k4", 2, 4, 3), depths)
    assert plain == traced


@pytest.mark.parametrize("n1", [0, 2])
def test_construction_runs_at_the_same_depth_plain_and_traced(monkeypatch, n1):
    hd = loader.load()
    depths = []
    real = hd.reconstruct.gen_lyndon

    def gen_lyndon(n, d):
        depths.append(len(inspect.stack()))
        return real(n, d)

    monkeypatch.setattr(hd.reconstruct, "gen_lyndon", gen_lyndon)
    plain, traced = _depths(RealizeOp(hd, WitnessGuard({})), _instance("x", 2, 6, 3, n1), depths)
    # The traced run also replays a span-one instance's lifted build after the op.
    assert plain and plain == traced[: len(plain)]

