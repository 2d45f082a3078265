"""Write bench/digests.json: the SHA-256 of every witness the default seed's
instances produce, the bit-identity guard that run.py checks outputs
against. Run it only on a commit whose witnesses are known good:

    python3 bench/record_digests.py
"""

from __future__ import annotations

import json

import loader
from ops import WitnessGuard
from run import DEFAULT_SEED, DIGESTS, make_op
from workloads import generate


def main() -> None:
    hd = loader.load()
    guard = WitnessGuard({})
    for workload in ("dense-regular", "span-one", "sparse-long"):
        op = make_op(hd, workload, guard)
        for inst in generate(workload, DEFAULT_SEED):
            op.run(inst)
    payload = {"seed": DEFAULT_SEED, "witnesses": dict(sorted(guard.computed.items()))}
    DIGESTS.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"{len(guard.computed)} witness digests written to {DIGESTS}")


if __name__ == "__main__":
    main()
