"""Record the block digests that ``table_range`` checks its outputs against.

Usage (from the repository root): python3 bench/record_digests.py

Runs ``matula table S 1 hi`` for each ``table_range`` statistic, with hi
the longest table the workload asks for, and writes
bench/table_digests.json.  Run it only at a commit whose table
output is known to be right: the benchmark treats any later difference as
an error.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from inputs import TABLE_BLOCK, TABLE_STATS, block_digests, table_hi_max

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    digests = {}
    for name in TABLE_STATS:
        out = subprocess.run(
            [sys.executable, "-m", "matula", "table", name, "1", str(table_hi_max(name))],
            env=env, cwd=ROOT, check=True, capture_output=True,
        ).stdout
        digests[name] = block_digests(out.splitlines(keepends=True))
    record = {"block": TABLE_BLOCK, "digests": digests}
    (BENCH / "table_digests.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
