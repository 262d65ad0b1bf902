"""Store the SHA-256 of every benchmark invocation's stdout in bench/digests.json.

    python3 bench/record_digests.py

Covers every window start of range and every limit of verify, so those two
workloads are checked byte for byte on any seed, and the large-index inputs
of the default seed for the first LARGE_INDEX_REPS repetitions.  Run it only
on a commit whose output is known to be right: the benchmark then counts
any later change in these bytes as a failed op.
"""

from __future__ import annotations

import json
import sys

import inputs
import run

LARGE_INDEX_REPS = 12
BATCH_TIMEOUT_S = 900


def all_ops() -> list[list[str]]:
    ops = []
    for s in inputs.SCAN_STARTS:
        ops.append(["scan", str(s), str(s + inputs.SCAN_LENGTH), "--output", "json"])
    for t in inputs.MT_STARTS:
        for family in inputs.MT_FAMILIES:
            ops.append(["mt-check", str(family), str(t), str(t + inputs.MT_LENGTH),
                        "--output", "json"])
    for limit in inputs.VERIFY_LIMITS:
        ops.append(["selftest", "--limit", str(limit),
                    "--prime-bound", str(inputs.VERIFY_PRIME_BOUND)])
    for rep in range(LARGE_INDEX_REPS):
        ops.extend(inputs.large_index_ops(run.DEFAULT_SEED, rep))
    return ops


def main() -> int:
    ops = all_ops()
    for workload, generate in inputs.WORKLOADS.items():
        missing = [a for a in generate(run.DEFAULT_SEED, 0) if a not in ops]
        if missing:
            sys.stderr.write(f"error: {workload} inputs not covered: {missing}\n")
            return 1
    digests = {}
    for i in range(0, len(ops), 20):
        child = run.spawn(ops[i:i + 20], timeout=BATCH_TIMEOUT_S)
        if "failure" in child:
            sys.stderr.write(f"error: {child['failure']}\n")
            return 1
        for op in child["ops"]:
            if op["error"] or op["code"] != 0:
                sys.stderr.write(f"error: {run.op_key(op['argv'])} failed: "
                                 f"{op['error'] or op['stderr']}\n")
                return 1
            digests[run.op_key(op["argv"])] = op["sha256"]
        print(f"{len(digests)}/{len(ops)} invocations recorded", flush=True)
    with open(run.DIGESTS, "w") as f:
        json.dump({"commit": run.commit(), "ops": digests}, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
