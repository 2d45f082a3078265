"""Closed-loop benchmark of hyperdeg: one caller, one op at a time.

    python3 bench/run.py --workload dense-regular --seed 1 --seconds 25 --trace 0

Workloads: dense-regular and span-one time `realize`; sparse-long times the
CLI round trip `reconstruct --output` then `verify --matrix`; decide times
`check_degree_sequence`. The inputs come from --seed alone (see
workloads.py). Every output is checked outside the timed region (see
checker.py and ops.py). Timings are scaled to a reference host speed by a
calibration kernel timed between ops (see calibrate.py). With --trace 0 the
run prints the end-to-end metrics; with --trace 1 it times each op both
plain and layer by layer and prints the per-layer metrics. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the line before it is the run record, which is also written to
bench/out/. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import loader
from calibrate import NEAREST, REF_KERNEL_S, Calibrator
from ops import LIMIT_S, DecideOp, RealizeOp, RoundTripOp, Tracer, WitnessGuard
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 9
MIN_VISIT_S = 0.02  # an instance's op repeats within a visit until this much time has passed
TAIL_BEYOND = 10  # the tail is the highest percentile with this many instances beyond it

PER_LAYER = {
    "feasibility.check_s": "s",
    "feasibility.calls": "count",
    "necklaces.gen_s": "s",
    "necklaces.count_s": "s",
    "necklaces.words_pulled": "count",
    "necklaces.words_used_ratio": "ratio",
    "necklaces.recursion_failures": "count",
    "words.expand_s": "s",
    "words.rows_expanded": "count",
    "words.matrix_s": "s",
    "words.chars_computed": "count",
    "reconstruct.build_s": "s",
    "reconstruct.self_s": "s",
    "reconstruct.span_one_post_s": "s",
    "reconstruct.rows_built": "count",
    "reconstruct.rows_kept_ratio": "ratio",
    "reconstruct.verify_s": "s",
    "hypergraphs.from_incidence_s": "s",
    "hypergraphs.validate_s": "s",
    "hypergraphs.edges": "count",
    "cli.write_s": "s",
    "cli.write_self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.read_s": "s",
    "cli.read_self_s": "s",
    "cli.bytes_read": "bytes",
    "cli.nonzero_exits": "count",
    "trace.overhead_ratio": "ratio",
}


def make_op(hd, workload: str, guard: WitnessGuard):
    if workload == "decide":
        return DecideOp(hd)
    if workload == "sparse-long":
        OUT.mkdir(exist_ok=True)
        return RoundTripOp(hd, guard, OUT)
    return RealizeOp(hd, guard)


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())["witnesses"]


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Import plus warm-up, each in a fresh interpreter (startup excluded).
    Returns the raw seconds and the seconds scaled by the kernel time that
    interpreter measured."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "loader.py"), workload],
            capture_output=True, text=True, timeout=120, check=True, cwd=HERE.parent,
        )
        setup, kernel = map(float, done.stdout.split()[-2:])
        raw.append(setup)
        scaled.append(setup * REF_KERNEL_S / kernel)
    return raw, scaled


def run_loop(op, instances, seconds: float, tracer: Tracer | None, cal: Calibrator):
    """Whole first pass, then keep cycling until `seconds` have passed. Each
    instance is visited once per pass, so its samples spread over the run and
    their median shrugs off the host's slow spells. Within a visit the op
    repeats back to back until MIN_VISIT_S have passed, so the short ops
    around the median get enough samples that their noise does not move it
    from one run to the next. The calibration kernel runs between visits,
    and each sample is scaled by the kernel times around it.
    Returns (plain samples, traced samples, complete passes, seconds used);
    samples map kind -> instance name -> list of Sample."""
    plain: dict = defaultdict(lambda: defaultdict(list))
    traced: dict = defaultdict(lambda: defaultdict(list))

    def run(inst, into, tracer=None):
        visit = perf_counter()
        while True:
            if tracer is not None:
                tracer.op += 1
            begin = perf_counter()
            samples = op.run(inst, tracer)
            mid = (begin + perf_counter()) / 2
            for kind, sample in samples.items():
                sample.at = mid
                into[kind][inst.name].append(sample)
            if perf_counter() - visit >= MIN_VISIT_S:
                break
        cal.tick()

    start = perf_counter()
    passes = 0
    while not passes or perf_counter() - start < seconds:
        for inst in instances:
            if passes and perf_counter() - start >= seconds:
                break
            run(inst, plain)
            if tracer is not None:
                run(inst, traced, tracer)
        else:
            passes += 1
    used = perf_counter() - start
    while len(cal.seconds) < NEAREST:
        cal.tick(force=True)
    for group in (plain, traced):
        for sample in all_samples(group.values()):
            sample.scale = cal.scale(sample.at)
    return plain, traced, passes, used


def latency(per_instance: dict, raw: bool = False) -> dict:
    """Median and tail over per-instance median latencies, in ms; scaled to
    the reference host speed unless `raw`."""
    medians = sorted(
        statistics.median(s.raw_latency if raw else s.latency for s in ss) for ss in per_instance.values()
    )
    count = len(medians)
    beyond = min(TAIL_BEYOND, count - 1)
    return {
        "p50_ms": statistics.median(medians) * 1e3,
        "tail_ms": medians[count - 1 - beyond] * 1e3,
        "tail_is": f"p{100 * (count - beyond) / count:.1f}: the value with {beyond} of {count} per-instance medians above it",
        "instances": count,
        "ops": sum(len(ss) for ss in per_instance.values()),
    }


def all_samples(groups) -> list:
    return [s for group in groups for ss in group.values() for s in ss]


def end_to_end(workload: str, plain: dict, setup: tuple[list[float], list[float]], cal: Calibrator) -> tuple[dict, dict]:
    """Every instance weighs the same, however many times its op repeated."""
    lat = latency(plain["op"])
    kinds = ("write", "read") if workload == "sparse-long" else ("op",)
    per_instance = [[s for kind in kinds for s in plain[kind][name]] for name in plain["op"]]
    fail_ratio = statistics.fmean(sum(s.failure is not None for s in ss) / len(ss) for ss in per_instance)
    cells = seconds = raw_seconds = 0.0
    for ss in plain["op"].values():
        ok = [s for s in ss if s.failure is None]
        if ok:
            cells += ok[0].cells
            seconds += statistics.median(s.scaled for s in ok)
            raw_seconds += statistics.median(s.seconds for s in ok)
    setup_raw, setup_scaled = setup
    metrics = {
        "op_p50_ms": (lat["p50_ms"], "ms"),
        "op_tail_ms": (lat["tail_ms"], "ms"),
        "cells_per_s": (cells / seconds if seconds else 0.0, "cells/s"),
        "success_ratio": (1 - fail_ratio, "ratio"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = latency(plain["op"], raw=True)
    record = {
        "samples": {
            "op_p50_ms": {"instances": lat["instances"], "ops": lat["ops"]},
            "op_tail_ms": {"instances": lat["instances"], "ops": lat["ops"]},
            "cells_per_s": {"instances": sum(any(s.failure is None for s in ss) for ss in plain["op"].values())},
            "success_ratio": {"instances": len(per_instance), "ops": sum(map(len, per_instance))},
            "setup_s": {"imports": len(setup_scaled)},
            "peak_rss_mb": {"processes": 1},
        },
        "tail": {"op_tail_ms": lat["tail_is"]},
        "fail_ratio": fail_ratio,
        "host_scale": {
            "ref_kernel_s": REF_KERNEL_S,
            "kernel_median_s": cal.median_s(),
            "kernel_runs": len(cal.seconds),
        },
        "raw": {
            "op_p50_ms": raw["p50_ms"],
            "op_tail_ms": raw["tail_ms"],
            "cells_per_s": cells / raw_seconds if raw_seconds else 0.0,
            "setup_s": statistics.median(setup_raw),
        },
        "setup_s_each": setup_scaled,
        "setup_s_each_raw": setup_raw,
    }
    if workload == "sparse-long":
        write, read = latency(plain["write"]), latency(plain["read"])
        record["write_p50_ms"] = write["p50_ms"]
        record["write_tail_ms"] = write["tail_ms"]
        record["read_p50_ms"] = read["p50_ms"]
        record["read_tail_ms"] = read["tail_ms"]
        record["tail"]["read_tail_ms"] = read["tail_is"]
        record["samples"]["read_p50_ms"] = {"instances": read["instances"], "ops": read["ops"]}
    return metrics, record


def per_layer(tracer: Tracer, plain: dict, traced: dict) -> dict:
    totals = tracer.totals
    pulled, built = totals["necklaces.words_pulled"], totals["reconstruct.rows_built"]
    values = {name: totals[name] for name in PER_LAYER}
    values["necklaces.words_used_ratio"] = totals["necklaces.words_expanded"] / pulled if pulled else 0.0
    values["reconstruct.rows_kept_ratio"] = totals["reconstruct.rows_kept"] / built if built else 0.0
    values["trace.overhead_ratio"] = latency(traced["op"])["p50_ms"] / latency(plain["op"])["p50_ms"]
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hd = loader.load()
    instances = generate(args.workload, args.seed)
    setup = measure_setup(args.workload)
    loader.warm_up(hd, args.workload)
    cal = Calibrator()
    for _ in range(3):
        cal.tick(force=True)
    op = make_op(hd, args.workload, WitnessGuard(load_digests()))
    tracer = Tracer() if args.trace else None
    plain, traced, passes, used = run_loop(op, instances, args.seconds, tracer, cal)

    # An instance's op of one kind (plain or traced; write or read) counts
    # once, and fails if any of its repeats failed, so the counts depend on
    # the seed alone and not on how many passes the host's speed allowed.
    kinds = ("write", "read") if args.workload == "sparse-long" else ("op",)
    groups = [ss for group in (plain, traced) for kind in kinds for ss in group[kind].values()]
    counted = [ss for ss in groups if ss]
    metrics, record = end_to_end(args.workload, plain, setup, cal)
    if tracer is not None:
        metrics = per_layer(tracer, plain, traced)
        record["trace.overhead_ratio"] = metrics["trace.overhead_ratio"][0]
    ops_run = [s for ss in counted for s in ss]
    failures = Counter(s.failure for s in ops_run if s.failure)
    result = {
        "correct": not any(s.wrong for s in ops_run),
        "attempted": len(counted),
        "failed": sum(any(s.failure for s in ss) for ss in counted),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seconds": args.seconds,
        "seconds_used": used,
        "complete_passes": passes,
        "per_op_limit_s": LIMIT_S,
        "ops_run": len(ops_run),
        "ops_failed": sum(failures.values()),
        "failures": dict(failures),
        **record,
        **result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"TRACE_{stem}.json").write_text(json.dumps(tracer.to_json()) + "\n")
    for path in OUT.glob("witness.*"):
        path.unlink()
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
