"""Command-line front end: parse, compute, emit.

Commands: coeff, classify, scan, verify-props, mt-check, selftest.  Each
argument's bounds are checked by its argparse type, before any command runs.
The parser is built once per process, and every call of main reuses it.

Exit status: 0 on success, 1 on usage/resource errors or a closed stdout, 2 on
an internal consistency red flag (cm/series mismatch, inexact division,
verifier failures, a violated biconditional, or an unexplained zero).

Machine-readable output (json, csv) is stable and deterministic: records
are emitted in index order and big integers are decimal strings.  Text
output is for humans and may change.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Iterable, TypeVar

from . import classify, props, series
from .errors import ConsistencyError, Eta26Error
from .hecke import AlgInt3, p26_cm, t1_prime, t2_prime

R = TypeVar("R")  # one report, of whichever type a command renders
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RED_FLAG = 2

_EULER_PREFIX = (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1,
                 0, 0, -1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1)
_JACOBI_PREFIX = (1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9,
                  0, 0, 0, 0, -11, 0, 0, 0, 0, 0, 13)


class UsageError(Exception):
    pass


_to_json = json.JSONEncoder(separators=(",", ":")).encode  # every other JSON line


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _cell(value: object) -> str:
    """One CSV cell, the one rule for every command's rows."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):  # factors as p^e, theorems as names
        return " ".join(x if isinstance(x, str) else f"{x[0]}^{x[1]}" for x in value)
    return str(value)


def _emit_reports(output: str, reports: Iterable[R], json_line: Callable[[R], str],
                  csv_header: str, cells: Callable[[R], Iterable[object]],
                  text: Callable[[R], str],
                  summary: Callable[[], tuple[dict, str]] | None = None) -> None:
    """Write reports to stdout as JSON lines, a CSV table or text lines.

    reports is read once, in order, from any iterable, and each record is
    written as it is rendered: json_line(report), or a CSV row of the
    report's cells, each written by _cell.  summary is called after the last
    report; it gives the JSON summary record and the text summary line (CSV
    has none).
    """
    render = {"json": json_line,
              "csv": lambda r: ",".join(map(_cell, cells(r))), "text": text}[output]
    if output == "csv":
        sys.stdout.write(f"{csv_header}\n")
    for report in reports:
        sys.stdout.write(f"{render(report)}\n")
    if summary is not None and output != "csv":
        summary_fields, summary_text = summary()
        sys.stdout.write(f"{_to_json({'summary': summary_fields})}\n"
                         if output == "json" else f"{summary_text}\n")


def _add_output_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=("json", "csv", "text"), default="text",
                   help="output format (default: text)")


def _at_least(low: int) -> Callable[[str], int]:
    """argparse type: an int that is at least low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_props_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prime-bound", type=_at_least(props.MIN_PRIME_BOUND),
                   default=props.DEFAULT_PRIME_BOUND)
    p.add_argument("--exp-bound", type=_at_least(0), default=props.DEFAULT_EXPONENT_BOUND)
    p.add_argument("--l-bound", type=_at_least(0), default=props.DEFAULT_L_BOUND)


def _cmd_coeff(args: argparse.Namespace) -> int:
    n, r = args.n, args.r
    method = args.method or ("cm" if r == 26 else "series")
    if method in ("cm", "both") and r != 26:
        raise UsageError("--method cm/both requires --r 26")
    values: dict[str, int] = {}
    if method in ("cm", "both"):
        values["cm"] = p26_cm(n)
    if method in ("series", "both"):
        values["series"] = series.eta_power_series(r, n, args.budget_mb)[n]
    if method == "both" and values["cm"] != values["series"]:
        sys.stderr.write(
            f"red flag: cm and series disagree at n={n}: "
            f"{values['cm']} != {values['series']}\n"
        )
        return EXIT_RED_FLAG
    value = values[method if method != "both" else "cm"]
    record = {"n": n, "r": r, "method": method, "coefficient": str(value)}
    if method == "both":
        record.update((key, str(v)) for key, v in values.items())
    agree = "  (cm and series agree)" if method == "both" else ""
    _emit_reports(args.output, [record], _to_json, "n,r,method,coefficient",
                  lambda _: (n, r, method, value),
                  lambda _: f"p_{r}({n}) = {value}{agree}")
    return EXIT_OK


def _vanishing_record(report: classify.VanishingReport) -> dict:
    """JSON record of a classify.VanishingReport; p26 as a decimal string."""
    prof = report.profile
    return {
        "n": prof.n,
        "m": prof.m,
        "factors": [[p, e] for p, e in prof.factorization],
        "condI": prof.cond_i,
        "condII": prof.cond_ii,
        "n1": prof.n1,
        "n2": prof.n2,
        "theorems": list(report.explanation),
        "p26": str(report.p26_value),
        "predicted": report.predicted,
        "consistent": report.consistent,
    }


_JSON_BOOL = ("false", "true")


def _vanishing_json(report: classify.VanishingReport) -> str:
    """_vanishing_record(report) as one JSON line; its words are fixed ASCII, none escaped."""
    prof = report.profile
    factors = ",".join([f"[{p},{e}]" for p, e in prof.factorization.factors])
    theorems = ",".join([f'"{name}"' for name in report.explanation])
    return (f'{{"n":{prof.n},"m":{prof.m},"factors":[{factors}],'
            f'"condI":{_JSON_BOOL[prof.cond_i]},"condII":{_JSON_BOOL[prof.cond_ii]},'
            f'"n1":{_JSON_BOOL[prof.n1]},"n2":{_JSON_BOOL[prof.n2]},'
            f'"theorems":[{theorems}],"p26":"{report.p26_value}",'
            f'"predicted":"{report.predicted}","consistent":{_JSON_BOOL[report.consistent]}}}')


# JSON line, CSV header and CSV cells (the record's values) of a VanishingReport
_VANISHING = (_vanishing_json,
              "n,m,factors,condI,condII,n1,n2,theorems,p26,predicted,consistent",
              lambda r: _vanishing_record(r).values())


def _classify_text(report: classify.VanishingReport) -> str:
    prof = report.profile
    factors = " * ".join(f"{p}^{e}" for p, e in prof.factorization) or "1"
    applied = ", ".join(report.explanation) or "none"
    return (
        f"n = {prof.n}, m = {prof.m} = {factors}\n"
        f"flags: condI={prof.cond_i} condII={prof.cond_ii} "
        f"n1={prof.n1} n2={prof.n2}\n"
        f"p26({prof.n}) = {report.p26_value}\n"
        f"predicted: {report.predicted}  applied: {applied}  "
        f"consistent: {report.consistent}"
    )


def _cmd_classify(args: argparse.Namespace) -> int:
    report = classify.apply_theorems(args.n)
    _emit_reports(args.output, [report], *_VANISHING, _classify_text)
    return EXIT_OK if report.consistent else EXIT_RED_FLAG


def _scan_text(r: classify.VanishingReport) -> str:
    tag = "ZERO" if r.p26_value == 0 else "nonzero"
    applied = ",".join(r.explanation) or "-"
    return f"n={r.profile.n} m={r.profile.m} {tag} [{applied}] p26={r.p26_value}"


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.end < args.start:
        raise UsageError("scan expects start <= end")
    stream = classify.RangeStream(args.start, args.end)
    _emit_reports(args.output, stream, *_VANISHING, _scan_text, lambda: (
        {"start": args.start, "end": args.end, "zero_count": stream.zero_count,
         "explained_zero_count": stream.explained,
         "unexplained_zeros": stream.unexplained},
        f"summary: {stream.zero_count} zeros, "
        f"{stream.explained} explained, unexplained: {stream.unexplained}",
    ))
    if args.output == "csv":
        sys.stderr.write(
            f"zeros: {stream.zero_count}, explained: "
            f"{stream.explained}, unexplained: {stream.unexplained}\n"
        )
    if stream.inconsistent or stream.unexplained:
        sys.stderr.write(
            f"red flag: {len(stream.inconsistent)} inconsistent reports, "
            f"unexplained zeros {stream.unexplained}\n"
        )
        return EXIT_RED_FLAG
    return EXIT_OK


def _props_record(r: props.PropReport) -> dict:
    return {
        "prop_id": r.prop_id,
        "bounds": {"prime_bound": r.prime_bound, "exponent_bound": r.exponent_bound},
        "checked": r.checked,
        "failures": [[p, a, detail] for p, a, detail in r.failures],
    }


def _props_text(r: props.PropReport) -> str:
    return (f"{r.prop_id}: checked {r.checked} primes below {r.prime_bound} "
            + ("OK" if r.ok else f"FAILURES {list(r.failures)}"))


def _cmd_verify_props(args: argparse.Namespace) -> int:
    reports = props.run_all(args.prime_bound, args.exp_bound, args.l_bound)
    _emit_reports(args.output, reports, lambda r: _to_json(_props_record(r)),
                  "prop_id,prime_bound,exponent_bound,checked,failures",
                  lambda r: (r.prop_id, r.prime_bound, r.exponent_bound, r.checked,
                             len(r.failures)),
                  _props_text)
    if any(not r.ok for r in reports):
        sys.stderr.write("red flag: verifier reported failures\n")
        return EXIT_RED_FLAG
    return EXIT_OK


def _mt_check_text(r: classify.VanishingReport) -> str:
    state = r.explanation[0] if r.explanation else "-"
    return (f"n={r.profile.n} p26={r.p26_value} predicted={r.predicted} "
            f"[{state}] consistent={r.consistent}")


def _cmd_mt_check(args: argparse.Namespace) -> int:
    if args.end < args.start:
        raise UsageError("mt-check expects start <= end")
    stream = classify.RangeStream(args.start, args.end, args.family)
    checked = args.end - args.start + 1
    # a report outside the gate predicts nothing and is always consistent
    _emit_reports(args.output, stream, *_VANISHING, _mt_check_text, lambda: (
        {"checked": checked, "gated": stream.gated, "violations": stream.inconsistent},
        f"summary: {stream.gated}/{checked} gated, {len(stream.inconsistent)} violations",
    ))
    if stream.inconsistent:
        sys.stderr.write(f"red flag: biconditional violated at n={stream.inconsistent}\n")
        return EXIT_RED_FLAG
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        line = f"selftest {name}: {'ok' if ok else 'FAIL'}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
        if not ok:
            failures += 1

    check("t2(5) = 20592", t2_prime(5) == 20592)
    check("t1(7) = -102960*sqrt(-3)", t1_prime(7) == AlgInt3(0, -102960))
    euler = series.eta_power_series(1, 26, args.budget_mb)
    check("euler prefix", euler.coeffs == _EULER_PREFIX)
    jacobi = series.eta_power_series(3, 21, args.budget_mb)
    check("jacobi prefix", jacobi.coeffs == _JACOBI_PREFIX)
    table = series.eta_power_series(26, args.limit, args.budget_mb)
    mismatch = [n for n in range(args.limit + 1) if p26_cm(n) != table[n]]
    check(f"cm = series on [0, {args.limit}]", not mismatch,
          f"first mismatch at n={mismatch[0]}" if mismatch else "")
    for rep in props.run_all(args.prime_bound, args.exp_bound, args.l_bound):
        check(f"props {rep.prop_id}", rep.ok, f"{len(rep.failures)} failures")
    stream = classify.RangeStream(0, min(args.limit, 200))
    for _ in stream:  # read for its counters
        pass
    check("no unexplained zeros", not stream.unexplained)
    return EXIT_RED_FLAG if failures else EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The eta26 parser, built on the first call and returned by every later one."""
    parser = _Parser(prog="eta26", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="one coefficient, by either or both paths")
    p.add_argument("n", type=_at_least(0))
    p.add_argument("--r", type=_at_least(1), default=26,
                   help="series exponent (default 26)")
    p.add_argument("--method", choices=("cm", "series", "both"), default=None,
                   help="cm (default for r=26), series, or both (reconcile)")
    p.add_argument("--budget-mb", type=_at_least(1), default=series.DEFAULT_BUDGET_MB)
    _add_output_flag(p)
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("classify", help="condition profile and verdict for one n")
    p.add_argument("n", type=_at_least(0))
    _add_output_flag(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("scan", help="classify a whole range and summarize zeros")
    p.add_argument("start", type=_at_least(0))
    p.add_argument("end", type=_at_least(0))
    _add_output_flag(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify-props", help="run the batch verifiers")
    _add_props_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=_cmd_verify_props)

    p = sub.add_parser("mt-check",
                       help="vanishing biconditionals for 25n+1 / 49n+3")
    p.add_argument("family", type=int, choices=tuple(classify.FAMILIES))
    p.add_argument("start", type=_at_least(0))
    p.add_argument("end", type=_at_least(0))
    _add_output_flag(p)
    p.set_defaults(func=_cmd_mt_check)

    p = sub.add_parser("selftest", help="vectors, cm/series sweep, verifiers")
    p.add_argument("--limit", type=_at_least(0), default=500,
                   help="cm/series reconciliation range (default 500)")
    _add_props_flags(p)
    p.add_argument("--budget-mb", type=_at_least(1), default=series.DEFAULT_BUDGET_MB)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n{parser.format_usage()}")
        return EXIT_USAGE
    except ConsistencyError as exc:
        sys.stderr.write(f"red flag: {exc}\n")
        return EXIT_RED_FLAG
    except Eta26Error as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # so that a closed stdout raises here, not at shutdown
    except BrokenPipeError:  # the reader closed stdout, as `eta26 scan ... | head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    entry()
