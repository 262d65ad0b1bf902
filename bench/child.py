"""One repetition of a benchmark workload, run in a fresh interpreter.

    python3 bench/child.py SPAWN_NS < request.json

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
process; set-up time runs from then until eta26.cli is imported and its
parser is built.  The request names the CLI invocations to run, one after
another, through eta26.cli.main(argv) in this process, and whether to trace
them.  The last line of stdout is one JSON object with the timings, a
SHA-256 of each invocation's stdout, and in a traced run the per-layer
span summary.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import eta26.cli as cli  # noqa: E402

cli.build_parser()
SETUP_NS = time.monotonic_ns() - int(sys.argv[1])

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

# Outputs up to this size are returned whole, so the parent can check their
# content where it holds no stored digest.
_KEEP_TEXT = 4096


class _Sink:
    """Stands in for sys.stdout: hashes the bytes and notes the first write."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.size = 0
        self.first_ns: int | None = None
        self.head: list[str] = []

    def write(self, text: str) -> int:
        if self.first_ns is None and text:
            self.first_ns = time.perf_counter_ns()
        data = text.encode()
        self.sha.update(data)
        self.size += len(data)
        if self.size <= _KEEP_TEXT:
            self.head.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def _run_one(run, argv: list[str], tracer) -> dict:
    sink, err = _Sink(), io.StringIO()
    first_span = len(tracer.names) if tracer else 0
    sys.stdout, sys.stderr = sink, err
    error = None
    start = time.perf_counter_ns()
    try:
        code = run(argv)
    except Exception:  # an exception is a failed op; keep the traceback
        code = None
        error = traceback.format_exc()
    finally:
        end = time.perf_counter_ns()
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    rec = {
        "argv": argv,
        "code": code,
        "error": error,
        "seconds": (end - start) / 1e9,
        "first_byte_s": None if sink.first_ns is None else (sink.first_ns - start) / 1e9,
        "sha256": sink.sha.hexdigest(),
        "bytes": sink.size,
        "text": "".join(sink.head) if sink.size <= _KEEP_TEXT else None,
        "stderr": err.getvalue()[-2000:],
    }
    if tracer:
        rec["span_counts"] = dict(Counter(tracer.names[first_span:]))
    return rec


def main() -> None:
    request = json.load(sys.stdin)
    tracer = None
    run = cli.main
    if request["trace"]:
        import spans

        tracer = spans.Tracer()
        wrapped = tracer.install()
        run = tracer.wrap(spans.ROOT, cli.main)
    start = time.perf_counter_ns()
    ops = [_run_one(run, argv, tracer) for argv in request["ops"]]
    wall_s = (time.perf_counter_ns() - start) / 1e9
    result = {
        "setup_s": SETUP_NS / 1e9,
        "wall_s": wall_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "eta26": os.path.dirname(cli.__file__),
        "ops": ops,
    }
    if tracer:
        result["wrapped"] = wrapped
        result["layers"] = tracer.summary()
        result["hit_ratio"] = spans.cache_hit_ratio()
        result["primes_checked"] = tracer.primes_checked
        result["spans"] = len(tracer.names)
        if request.get("spans_path"):
            tracer.write(request["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
