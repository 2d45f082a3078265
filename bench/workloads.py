"""Seeded inputs of the four workloads.

Each workload is a list of instances: pinned anchors from the ROADMAP
baselines plus a seeded sample. The sample is a Latin hypercube: every
dimension (log n, log h, log rows, ...) is cut into as many strata as there
are instances and each stratum is used once. Which strata go together is
fixed per workload. n and h sit at their strata centres, since cost jumps
with them; the seed places the other dimensions (degrees, regular or
span-one, write format) inside their strata and orders the instances. So two
seeds give different instances of nearly the same sizes, and the medians of
one seed stay close to those of another.
Sampled instances stay below the anchors in rows x n, so the anchors set
the peak memory of a run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from checker import Verdict, capacity_reaches, decide

WORKLOADS = ("dense-regular", "span-one", "sparse-long", "decide")

ROWS_MAX = 50_000  # dense-regular and span-one rows stay below this
# rows x n of a sample is log-uniform in this range (then clipped to what n
# and h allow): cost follows rows x n, and the median op is not a tiny one.
CELLS = {"dense-regular": (20_000, 600_000), "span-one": (20_000, 300_000)}
SAMPLED = {"dense-regular": 240, "span-one": 200, "sparse-long": 180, "decide": 150}
# Infeasible decide instances need a degree above C(n-1, h-1); capping their
# h keeps that number (and comparing it n times) small.
DECIDE_INFEASIBLE_H_MAX = 100


@dataclass(frozen=True)
class Instance:
    """Edge size h and the degree sequence v repeated n - n1 times, then
    v - 1 repeated n1 times."""

    name: str
    h: int
    n: int
    v: int
    n1: int
    verdict: Verdict  # the reference decider's answer
    fmt: str = "lines"  # sparse-long write format

    @property
    def degrees(self) -> tuple[int, ...]:
        """Built on each use, so only one long sequence is alive at a time."""
        return _degrees(self.n, self.v, self.n1)

    @property
    def key(self) -> str:
        """Names h and the degree sequence, e.g. 'h2:150x150+149x150'."""
        tail = f"+{self.v - 1}x{self.n1}" if self.n1 else ""
        return f"h{self.h}:{self.v}x{self.n - self.n1}{tail}"

    def degree_args(self) -> list[str]:
        """The CLI degree source: --n/--v when regular, else --degrees."""
        if not self.n1:
            return ["--n", str(self.n), "--v", str(self.v)]
        return ["--degrees", ",".join(map(str, self.degrees))]


def _degrees(n: int, v: int, n1: int) -> tuple[int, ...]:
    return (v,) * (n - n1) + (v - 1,) * n1


def _instance(name: str, h: int, n: int, v: int, n1: int = 0, fmt: str = "lines") -> Instance:
    return Instance(name, h, n, v, n1, decide(_degrees(n, v, n1), h), fmt)


def _latin(workload: str, rng: random.Random, count: int, fixed: int) -> list[tuple[float, ...]]:
    """`count` points in [0, 1)^5, one per stratum of every dimension. The
    strata pairing is the same for every seed. The first `fixed` dimensions
    sit at their strata centres; the seed places the others."""
    design = random.Random(f"design:{workload}")
    columns = []
    for dim in range(5):
        strata = list(range(count))
        design.shuffle(strata)
        columns.append([(s + (0.5 if dim < fixed else rng.random())) / count for s in strata])
    return list(zip(*columns))


def _log_between(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _n_h(un: float, uh: float, n_lo: float, n_hi: float) -> tuple[int, int]:
    n = round(_log_between(un, n_lo, n_hi))
    h = min(n // 2, max(2, round(_log_between(uh, 2, n / 2))))
    return n, h


def _dense_regular(u: tuple[float, ...]) -> tuple[int, int, int]:
    n, h = _n_h(u[0], u[1], 12, 300)
    step = h // math.gcd(n, h)  # n*v/h is whole iff step divides v
    cap = min(math.comb(n - 1, h - 1), ROWS_MAX * h // n)
    cap -= cap % step
    rows = _log_between(u[2], *CELLS["dense-regular"]) / n
    v = min(cap, max(step, round(rows * h / n / step) * step))
    return h, n, v


def _span_one_sample(u: tuple[float, ...]) -> tuple[int, int, int, int]:
    n, h = _n_h(u[0], u[1], 12, 300)
    rows_max = min(ROWS_MAX, math.comb(n, h) - 1)
    m = min(rows_max, round(_log_between(u[2], *CELLS["span-one"]) / n))
    while True:
        ones = m * h
        v = -(-ones // n)
        n1 = n * v - ones
        if n1 and -(-v * n // h) <= math.comb(n, h):  # capacity holds
            return h, n, v, n1
        m -= 1


def _sparse_long(u: tuple[float, ...]) -> tuple[int, int, int, int, str]:
    n = round(_log_between(u[0], 300, 2000))
    h = 2 + int(u[1] * 5)
    v = round(_log_between(u[2], 1, 2 * h))
    fmt = "lines" if u[4] < 0.5 else "edges"
    if u[3] < 0.5:
        step = h // math.gcd(n, h)
        return h, n, max(step, v - v % step), 0, fmt
    v = max(v, 2)
    return h, n, v, (n * v) % h or h, fmt


def _decide(i: int, u: tuple[float, ...]) -> tuple[int, int, int, int]:
    feasible = i % 3 != 2
    regular = i % 2 == 0
    n = round(_log_between(u[0], 1_000, 400_000))
    h_hi = n / 2 if feasible else min(n / 2, DECIDE_INFEASIBLE_H_MAX)
    h = min(n // 2, max(2, round(_log_between(u[1], 2, h_hi))))
    step = h // math.gcd(n, h) if regular else 1  # regular: n*v/h is whole
    if feasible:
        # A small degree, so a bounded capacity comparison can stop early.
        k = round(_log_between(u[2], 1, 1_000))
        while k > 1 and not capacity_reaches(n, h, -(-max(2, k * step) * n // h)):
            k //= 2
        v = k * step if regular else max(2, k)
    else:
        v = math.comb(n - 1, h - 1) + step  # v*n > h*C(n,h) by n*step/h >= 1
    return h, n, v, 0 if regular else (n * v) % h or h


def generate(workload: str, seed: int) -> list[Instance]:
    """The anchors, then the seeded sample in a seeded order. The anchors
    run first, on a fresh heap, so the run's peak memory does not depend on
    what the shuffle put before them."""
    rng = random.Random(f"{workload}:{seed}")
    # Cost jumps with n and h (divisors, levels, lifts; C(n, h) in decide),
    # so n and h sit at their strata centres and the seed moves the degrees.
    points = _latin(workload, rng, SAMPLED[workload], fixed=2)
    if workload == "dense-regular":
        anchors = [_instance("K_100", 2, 100, 99), _instance("K_300", 2, 300, 299)]
        sample = [_instance(f"s{i}", *_dense_regular(u)) for i, u in enumerate(points)]
    elif workload == "span-one":
        anchors = [_instance("span300", 2, 300, 150, 150)]
        sample = [_instance(f"s{i}", *_span_one_sample(u)) for i, u in enumerate(points)]
    elif workload == "sparse-long":
        anchors = [_instance("n1500h3v1", 3, 1500, 1)]
        sample = [_instance(f"s{i}", *_sparse_long(u)) for i, u in enumerate(points)]
    elif workload == "decide":
        anchors = [_instance("n4e5h2e5", 200_000, 400_000, 4)]
        sample = [_instance(f"s{i}", *_decide(i, u)) for i, u in enumerate(points)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(sample)
    return anchors + sample
