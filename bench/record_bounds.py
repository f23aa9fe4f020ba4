#!/usr/bin/env python3
"""Write error_bounds.json: the error bounds each fixed op prints today.

    python3 bench/record_bounds.py

run.py fails an op whose printed error_bound is wider than the recorded
one, so an enclosure that widens shows as a failure, not as a speed-up.
Run this only at the commit that defines the baseline; it refuses to
record an op whose output misses the oracle.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, Spawner
from verify import BOUNDS_FILE, CHECKERS, failure
from workloads import WORKLOADS, fixed_ops


def main() -> int:
    recorded = {}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        spawner = Spawner(Path(tmp))
        for workload in WORKLOADS:
            for op in fixed_ops(workload, tmp):
                res = spawner.cli(op)
                why = failure(res, {})
                if why:
                    print(f"error: {op.key}: {why}", file=sys.stderr)
                    return 1
                bounds = CHECKERS[op.verb](res)
                if bounds is not None:
                    recorded[op.key] = bounds
    lines = [f"{json.dumps(key)}: {json.dumps(recorded[key])}" for key in sorted(recorded)]
    BOUNDS_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {sum(map(len, recorded.values()))} error bounds of {len(recorded)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
