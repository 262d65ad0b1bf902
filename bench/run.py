"""eta26 benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 bench/run.py [--workload range|large-index|verify|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
src/.  One closed-loop client: each repetition runs the workload's CLI
invocations one after another in a fresh child interpreter (bench/child.py),
children run one at a time, and repetitions continue until --seconds have
passed.  Repetition k draws its inputs from (seed, k), so a run covers
several input sets and the same seed always gives the same inputs.

Every invocation's stdout is hashed and compared with bench/digests.json;
one that exits nonzero, raises, times out or differs counts its ops as
failed.  With --trace 0 the run prints the end-to-end metrics; with
--trace 1 each input set runs once plain and once traced, and the run
prints the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The full
record of a run, inputs included, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import inputs
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
DIGESTS = os.path.join(BENCH, "digests.json")
OUT = os.path.join(BENCH, "out")

DEFAULT_SEED = 0
# A child running longer than this is killed and its ops count as failed:
# a representation search has no budget, so a bad input must not hang the run.
CHILD_TIMEOUT_S = 45
# With at most 60 s of repetitions, a run ends within 180 s even when the
# last repetition's children (two in a traced run) run into CHILD_TIMEOUT_S.
MAX_SECONDS = 60
# Set-up-only children started before the repetitions, for more set-up samples.
SETUP_PROBES = 5

# The CLI command whose time to first stdout byte is first_record_s.
MAIN_COMMAND = {"range": "scan", "large-index": "coeff", "verify": "selftest"}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("first_record_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

LAYER_SPANS = (*dict.fromkeys(name for name, _, _ in spans.WRAP_POINTS), spans.ROOT)
PER_LAYER = (
    ("arith.factorize.calls", "count"),
    ("arith.factorize.self_s", "s"),
    ("arith.factorize.per_index", "calls/index"),
    ("arith.is_prime.calls", "count"),
    ("arith.is_prime.self_s", "s"),
    ("quadrep.two_squares.calls", "count"),
    ("quadrep.two_squares.self_s", "s"),
    ("quadrep.one_three_squares.calls", "count"),
    ("quadrep.one_three_squares.self_s", "s"),
    ("hecke.t_prime.calls", "count"),
    ("hecke.t_prime.hit_ratio", "ratio"),
    ("hecke.t_prime.self_s", "s"),
    ("hecke.t_prime_power.calls", "count"),
    ("hecke.t_prime_power.self_s", "s"),
    ("hecke.coeff_bundle.self_s", "s"),
    ("hecke.p26_cm.calls", "count"),
    ("series.eta_power_series.calls", "count"),
    ("series.eta_power_series.self_s", "s"),
    ("classify.profile.self_s", "s"),
    ("classify.apply_theorems.self_s", "s"),
    ("classify.scan.self_s", "s"),
    ("classify.check_family.self_s", "s"),
    ("props.verify.self_s", "s"),
    ("props.verify.primes_checked", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("trace.overhead_s", "s"),
)


def percentile(samples: list[tuple[float, int]], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 1, of (value, count) samples."""
    ordered = sorted(samples)
    rank = math.ceil(q * sum(count for _, count in ordered))
    seen = 0
    for value, count in ordered:
        seen += count
        if seen >= rank:
            return value
    raise ValueError("no samples")


def spawn(ops: list[list[str]], trace: bool = False, spans_path: str | None = None,
          timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ops in a fresh child; on timeout, crash or bad output return {"failure": ...}."""
    request = json.dumps({"ops": ops, "trace": trace, "spans_path": spans_path})
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen([sys.executable, CHILD, str(spawn_ns)], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(request, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"failure": f"child killed after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"failure": f"child exited {proc.returncode}: {err[-2000:]}"}
    try:
        result = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return {"failure": f"child printed no result: {err[-2000:]}"}
    if os.path.realpath(result["eta26"]) != os.path.realpath(os.path.join(SRC, "eta26")):
        return {"failure": f"child imported eta26 from {result['eta26']}, not {SRC}"}
    return result


def load_digests() -> dict[str, str]:
    with open(DIGESTS) as f:
        return json.load(f)["ops"]


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def check_op(op: dict, digests: dict[str, str]) -> str | None:
    """Why this invocation failed, or None if its output is correct."""
    if op["error"]:
        return op["error"].strip().splitlines()[-1]
    if op["code"] != 0:
        return f"exit status {op['code']}: {op['stderr'].strip()[-200:]}"
    want = digests.get(op_key(op["argv"]))
    if want is not None:
        return None if op["sha256"] == want else "stdout differs from the stored digest"
    if op["argv"][0] == "coeff":
        return _check_coeff(op)
    return "no stored digest for this invocation"


def _check_coeff(op: dict) -> str | None:
    """Content check for a coeff output without a stored digest."""
    n = int(op["argv"][1])
    try:
        rec = json.loads(op["text"] or "")
        value = int(rec["coefficient"])
    except (TypeError, ValueError, KeyError):
        return "coeff output is not one JSON record with an integer coefficient"
    if (rec["n"], rec["r"], rec["method"]) != (n, 26, "cm") or len(rec) != 4:
        return f"unexpected coeff record {rec}"
    # 12n + 13 prime: the prime-power theorem says p26(n) != 0.
    if value == 0 and inputs.is_prime(12 * n + 13):
        return "p26(n) = 0 where 12n + 13 is prime"
    return None


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
        "system": " ".join(os.uname()[i] for i in (0, 2, 4)),
    }


def run_reps(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes, then repetitions until `seconds` have passed."""
    setups = [probe["setup_s"] for probe in (spawn([]) for _ in range(SETUP_PROBES))
              if "setup_s" in probe]
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.tsv.gz")
    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        ops = inputs.WORKLOADS[workload](seed, len(reps))
        rep = {"ops": ops, "plain": spawn(ops)}
        if trace:
            rep["traced"] = spawn(ops, True, spans_path)
        reps.append(rep)
    return {"setup_probes_s": setups, "reps": reps, "spans_file": spans_path if trace else None}


def score(runs: dict) -> dict:
    """Check every invocation and count attempted and failed ops."""
    digests = load_digests()
    attempted = failed = 0
    failures = []
    for rep in runs["reps"]:
        for kind in ("plain", "traced"):
            child = rep.get(kind)
            if child is None:
                continue
            count = sum(inputs.op_count(argv) for argv in rep["ops"])
            attempted += count
            if "failure" in child:
                failed += count
                failures.append({"ops": [op_key(a) for a in rep["ops"]], "why": child["failure"]})
                continue
            for op in child["ops"]:
                why = check_op(op, digests)
                if why:
                    failed += inputs.op_count(op["argv"])
                    failures.append({"ops": [op_key(op["argv"])], "why": why})
    return {"attempted": attempted, "failed": failed, "failures": failures}


def _children(runs: dict, kind: str) -> list[dict]:
    """The children of one kind ("plain" or "traced") that returned a result."""
    return [rep[kind] for rep in runs["reps"] if kind in rep and "failure" not in rep[kind]]


def _rep_values(child: dict, main: str) -> dict:
    """End-to-end values of one plain repetition; set-up is taken over all children."""
    ops = child["ops"]
    per_op_ms = []  # (latency, ops): an invocation of k ops gives each its time / k
    for op in ops:
        k = inputs.op_count(op["argv"])
        per_op_ms.append((op["seconds"] * 1e3 / k, k))
    ttfb = [op["first_byte_s"] for op in ops
            if op["argv"][0] == main and op["first_byte_s"] is not None]
    return {
        "wall_s": child["wall_s"],
        "ops_per_s": sum(k for _, k in per_op_ms) / child["wall_s"],
        "first_record_s": statistics.median(ttfb) if ttfb else None,
        "op_p50_ms": percentile(per_op_ms, 0.5),
        "op_p90_ms": percentile(per_op_ms, 0.9),
        "peak_rss_mb": child["maxrss_kib"] / 1024,
    }


def end_to_end(workload: str, runs: dict) -> dict:
    """Medians over the run's plain repetitions."""
    plain = _children(runs, "plain")
    rows = [_rep_values(child, MAIN_COMMAND[workload]) for child in plain]
    setups = runs["setup_probes_s"] + [child["setup_s"] for child in plain]
    samples = {"setup_s": setups}
    for name, _ in END_TO_END[1:]:
        samples[name] = [row[name] for row in rows if row[name] is not None]
    return {name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END if samples[name]}


def _layer_values(child: dict) -> dict:
    layers = child["layers"]
    ops = sum(inputs.op_count(op["argv"]) for op in child["ops"])
    values = {}
    for span in LAYER_SPANS:
        row = layers.get(span, {"calls": 0, "self_s": 0.0})
        values[f"{span}.calls"] = row["calls"]
        values[f"{span}.self_s"] = row["self_s"]
    values["arith.factorize.per_index"] = values["arith.factorize.calls"] / ops
    values["hecke.t_prime.hit_ratio"] = child["hit_ratio"]
    values["props.verify.primes_checked"] = child["primes_checked"]
    values["cli.bytes_out"] = sum(op["bytes"] for op in child["ops"])
    return values


def per_layer(runs: dict) -> dict:
    pairs = [rep for rep in runs["reps"]
             if "failure" not in rep["plain"] and "failure" not in rep["traced"]]
    if not pairs:
        return {}
    rows = [_layer_values(rep["traced"]) for rep in pairs]
    values = {name: statistics.median(row[name] for row in rows)
              for name, _ in PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = statistics.median(
        rep["traced"]["wall_s"] - rep["plain"]["wall_s"] for rep in pairs)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def layer_report(runs: dict) -> list[str]:
    """Human-readable extras of a traced run: self-time shares and factorize per index."""
    traced = _children(runs, "traced")
    if not traced:
        return []
    child = traced[0]
    lines = [f"traced repetition 0: {child['spans']} spans, wall {child['wall_s']:.4f} s, "
             f"wrapped {', '.join(child['wrapped'])}"]
    wall = child["wall_s"]
    shares: dict[str, float] = {}
    for span, row in child["layers"].items():
        layer = span.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + row["self_s"]
    for layer, self_s in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"  self time  {layer:<26} {self_s:9.4f} s  {100 * self_s / wall:5.1f} % of wall")
    for span, row in sorted(child["layers"].items(), key=lambda kv: -kv[1]["total_s"]):
        lines.append(f"  total time {span:<26} {row['total_s']:9.4f} s  "
                     f"{100 * row['total_s'] / wall:5.1f} % of wall  ({row['calls']} calls)")
    for op in child["ops"]:
        if op["argv"][0] in ("scan", "mt-check"):
            calls = op["span_counts"].get("arith.factorize", 0)
            lines.append(f"  arith.factorize per index in '{op_key(op['argv'])}': "
                         f"{calls / inputs.op_count(op['argv']):.4f}")
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runs = run_reps(workload, seed, seconds, trace)
    tally = score(runs)
    metrics = per_layer(runs) if trace else end_to_end(workload, runs)
    names = PER_LAYER if trace else END_TO_END
    correct = tally["failed"] == 0 and len(metrics) == len(names)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "inputs": [rep["ops"] for rep in runs["reps"]],
        "setup_probes_s": runs["setup_probes_s"],
        "reps": [{kind: _strip(rep[kind]) for kind in ("plain", "traced") if kind in rep}
                 for rep in runs["reps"]],
        "spans_file": runs["spans_file"],
        **tally,
        "metrics": metrics,
    }
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    env = record["environment"]
    print(f"== {workload}  seed {seed}  trace {int(trace)}  {len(runs['reps'])} repetitions  "
          f"python {env['python']}  commit {env['commit']}  nproc {env['nproc']}  "
          f"src lines {env['src_lines']}")
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:.6g} {m['unit']}")
    if not trace:
        per_rep = [len(c["ops"]) for c in _children(runs, "plain")]
        print(f"{'op latency samples per repetition':<36} {per_rep}")
    print(f"{'error_rate':<36} {tally['failed'] / max(1, tally['attempted']):.6g} ratio  "
          f"({tally['failed']} of {tally['attempted']} ops failed)")
    for failure in tally["failures"][:5]:
        print(f"  FAILED {failure['ops'][:3]}: {failure['why']}")
    if trace:
        for line in layer_report(runs):
            print(line)
    print(f"record written to {os.path.relpath(path, ROOT)}")
    return {"correct": correct, "attempted": max(1, tally["attempted"]),
            "failed": tally["failed"], "metrics": metrics}


def _strip(child: dict) -> dict:
    """A child's result without the bulky per-op text."""
    if "ops" not in child:
        return child
    ops = [{k: v for k, v in op.items() if k != "text"} for op in child["ops"]]
    return {**child, "ops": ops}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")
    if not os.path.isfile(os.path.join(SRC, "eta26", "cli.py")):
        sys.stderr.write(f"error: no eta26 sources under {SRC}; run from a source checkout\n")
        return 2
    workloads = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        result = run_one(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
