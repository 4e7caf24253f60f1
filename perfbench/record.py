"""Record the exit code and stdout digest of every benchmark operation.

Run from the root of a checkout:

    python3 perfbench/record.py

Runs each operation of every workload once against ./src and overwrites
perfbench/expected.json with what it printed.  The recorded file is the
reference the benchmark checks against, so record only from a commit whose
outputs are known to be right.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from run import EXPECTED, WORKLOADS, op_key, run_worker


def main() -> int:
    root = Path.cwd()
    ops = {op_key(argv): argv for argvs in WORKLOADS.values() for argv in argvs}
    report = run_worker(root, list(ops.values()), False, None,
                        time.monotonic() + 3600)
    expected = {}
    for record in report["ops"]:
        if record["error"] is not None:
            print(f"{op_key(record['argv'])}: raised {record['error']}", file=sys.stderr)
            return 1
        expected[op_key(record["argv"])] = {
            "exit": record["exit"], "sha256": record["sha256"],
            "bytes": record["bytes"]}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(expected)} operations in {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
