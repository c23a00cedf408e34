"""Record the default-seed round-0 results that later runs are checked against.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json.  Run it only on a commit whose outputs
are meant to be the reference; every later run with the default seed must
reproduce them (exponents to 1e-9, strategies exactly, exact log P_e to
1e-12 relative, Monte Carlo bit for bit, CLI output by sha256).
"""

from __future__ import annotations

import json
import sys

import worker


def main() -> int:
    ref = {"seed": worker.DEFAULT_SEED, "round0": {}}
    for workload in ("search", "exact", "mc"):
        out = worker.run(workload, worker.DEFAULT_SEED, 0.0, False, worker.ROOT / ".perfbench_out")
        if out["failed"]:
            print(f"{workload}: {out['record']['failures']}", file=sys.stderr)
            return 1
        ref["round0"][workload] = out["round0"]
    worker.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
