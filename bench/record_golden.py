"""Record the golden table: python3 bench/record_golden.py

Runs every query any workload can generate through one worker session
and writes bench/golden.json: argv -> [exit code, sha256 of stdout].
Refuses to write when a decompose/oracle output breaks the dimension
invariant. Run it only on a commit whose output is the reference.
"""

from __future__ import annotations

import json
import sys

import check
import queries
from run import sweep_session


def main() -> int:
    everything = {check.key(argv): argv for argv in queries.all_queries()}
    order = list(everything.values())
    _, _, results = sweep_session(order)
    golden = {}
    for argv, res in zip(order, results):
        code, stdout = res["code"], res["stdout"]
        if code == 0 and argv[0] in ("decompose", "oracle"):
            reason = check.invariant_error(argv, stdout)
            if reason:
                print(f"error: {check.key(argv)}: {reason}", file=sys.stderr)
                return 1
        golden[check.key(argv)] = [code, check.digest(stdout)]
    lines = [f"{json.dumps(k)}: {json.dumps(golden[k])}" for k in sorted(golden)]
    with open(check.GOLDEN_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    codes = sorted({code for code, _ in golden.values()}, key=str)
    print(f"{len(golden)} queries, exit codes {codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
