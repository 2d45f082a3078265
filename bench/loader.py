"""Import hyperdeg from this checkout's src/ and time the set-up.

Run as a script it prints the seconds spent importing hyperdeg and
hyperdeg.cli plus one warm-up op of the named workload, measured inside a
fresh interpreter, then the median time of the calibration kernel in that
interpreter (see calibrate.py):

    python3 bench/loader.py dense-regular
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load():
    """Import hyperdeg and hyperdeg.cli from SRC, never from an installed copy.
    Exits with status 2 when SRC holds no hyperdeg package."""
    package = SRC / "hyperdeg"
    if not (package / "__init__.py").is_file():
        print(f"bench: no hyperdeg package at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hyperdeg
    import hyperdeg.cli

    if Path(hyperdeg.__file__).resolve().parent != package:
        print(f"bench: imported hyperdeg from {hyperdeg.__file__}", file=sys.stderr)
        sys.exit(2)
    return hyperdeg


def warm_up(hd, workload: str) -> None:
    """One tiny op of the workload's kind, so lazy set-up happens before timing."""
    if workload == "decide":
        hd.check_degree_sequence((3,) * 6, 2)
    elif workload == "sparse-long":
        with contextlib.redirect_stdout(io.StringIO()):
            hd.cli.main(["reconstruct", "--h", "2", "--n", "6", "--v", "2"])
    else:
        hd.realize((2, 2, 2, 2, 1, 1), 2)
        hd.realize((2,) * 6, 2)


if __name__ == "__main__":
    start = time.perf_counter()
    warm_up(load(), sys.argv[1])
    setup = time.perf_counter() - start
    print(setup, statistics.median(calibrate.time_kernel() for _ in range(9)))
