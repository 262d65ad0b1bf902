import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eta26.arith as arith
import eta26.classify as classify
import eta26.cli as cli
import eta26.hecke as hecke
from eta26.errors import ConsistencyError
from eta26.props import PropReport


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_both_paths_agree(capsys):
    code, out, _ = run(capsys, ["coeff", "9", "--method", "both"])
    assert code == 0
    assert "p_26(9) = 0" in out


def test_coeff_r3_series(capsys):
    code, out, _ = run(capsys, ["coeff", "1", "--r", "3", "--method", "series"])
    assert code == 0
    assert "p_3(1) = -3" in out


def test_coeff_json(capsys):
    code, out, _ = run(
        capsys, ["coeff", "2", "--method", "both", "--output", "json"]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec == {
        "n": 2, "r": 26, "method": "both",
        "coefficient": "299", "cm": "299", "series": "299",
    }


def test_coeff_csv(capsys):
    code, out, _ = run(capsys, ["coeff", "0", "--output", "csv"])
    assert code == 0
    assert out.splitlines() == ["n,r,method,coefficient", "0,26,cm,1"]


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, ["classify", "9", "--output", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["m"] == 121
    assert rec["condII"] is True
    assert rec["p26"] == "0"
    assert rec["predicted"] == "zero"


def test_scan_json_records_and_summary(capsys):
    code, out, _ = run(capsys, ["scan", "0", "12", "--output", "json"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 14  # 13 records + summary
    records = [json.loads(line) for line in lines[:-1]]
    assert [r["n"] for r in records] == list(range(13))
    summary = json.loads(lines[-1])["summary"]
    assert summary["zero_count"] == 1
    assert summary["unexplained_zeros"] == []


def test_scan_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, ["scan", "0", "40", "--output", "json"])
    _, second, _ = run(capsys, ["scan", "0", "40", "--output", "json"])
    assert first == second


def test_scan_csv(capsys):
    code, out, err = run(capsys, ["scan", "9", "9", "--output", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,m,factors")
    assert lines[1].startswith("9,121,11^2,")
    assert "zeros: 1" in err


def test_verify_props_json(capsys):
    code, out, _ = run(
        capsys,
        ["verify-props", "--prime-bound", "200", "--exp-bound", "4",
         "--l-bound", "1", "--output", "json"],
    )
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 5
    assert all(r["failures"] == [] for r in reports)


def test_mt_check(capsys):
    code, out, _ = run(capsys, ["mt-check", "25", "0", "10", "--output", "json"])
    assert code == 0
    lines = out.splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["checked"] == 11
    assert summary["violations"] == []

    code, _, _ = run(capsys, ["mt-check", "49", "0", "5"])
    assert code == 0


def test_selftest(capsys):
    code, out, _ = run(
        capsys,
        ["selftest", "--limit", "40", "--prime-bound", "300",
         "--exp-bound", "4", "--l-bound", "1"],
    )
    assert code == 0
    assert "FAIL" not in out
    assert "cm = series on [0, 40]: ok" in out


def test_usage_errors_exit_1(capsys):
    for argv in (
        ["coeff", "9", "--r", "3", "--method", "cm"],
        ["coeff", "-4"],
        ["scan", "5", "3"],
        ["nonsense"],
        ["coeff", "1", "--r", "0"],
        ["mt-check", "30", "0", "1"],
        ["verify-props", "--prime-bound", "3"],
        ["verify-props", "--prime-bound", "12"],
        ["verify-props", "--prime-bound", "13"],
        ["verify-props", "--exp-bound", "-3"],
        ["verify-props", "--l-bound", "-1"],
        ["selftest", "--prime-bound", "3"],
        ["selftest", "--prime-bound", "13"],
        ["selftest", "--limit", "-1"],
        ["selftest", "--budget-mb", "0"],
        ["coeff", "5", "--budget-mb", "-1"],
        ["classify", "-1"],
        ["scan", "-1", "3"],
        ["mt-check", "25", "-1", "3"],
        ["mt-check", "25", "5", "3"],
        ["selftest", "--exp-bound", "-1"],
        ["selftest", "--l-bound", "-1"],
        ["coeff", "abc"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 1, argv
        assert err.startswith("error: "), argv
        assert out == "", argv
        if argv == ["coeff", "abc"]:
            assert "invalid int value" in err


def test_parser_is_built_once_and_outlives_a_usage_error(capsys):
    assert cli.build_parser() is cli.build_parser()
    alone = run(capsys, ["coeff", "5", "--output", "json"])
    code, out, err = run(capsys, ["coeff", "-1"])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ")
    assert run(capsys, ["coeff", "5", "--output", "json"]) == alone
    assert alone == (cli.EXIT_OK, '{"n":5,"r":26,"method":"cm","coefficient":"-13754"}\n', "")


def test_budget_exhaustion_exits_1(capsys):
    code, _, err = run(
        capsys, ["coeff", "2000000", "--method", "series", "--budget-mb", "1"]
    )
    assert code == 1
    assert "budget" in err


def test_growing_table_budget_exits_1(capsys):
    code, out, err = run(
        capsys,
        ["coeff", "3000", "--r", "1000000", "--method", "series", "--budget-mb", "1"],
    )
    assert code == 1
    assert "budget" in err
    assert out == ""


def test_cm_series_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "p26_cm", lambda n: 12345)
    code, _, err = run(capsys, ["coeff", "9", "--method", "both"])
    assert code == 2
    assert "red flag" in err


def test_props_failures_exit_2(capsys, monkeypatch):
    broken = PropReport("t2-divisibility-5mod12", 10, 1, 1,
                        ((17, 1, "synthetic failure"),))
    monkeypatch.setattr(cli.props, "run_all", lambda *a, **k: [broken])
    code, _, err = run(capsys, ["verify-props"])
    assert code == 2
    assert "red flag" in err


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_props_failure_rendering(capsys, monkeypatch, fmt):
    # stdout recorded before verify-props went through the shared emitter
    broken = PropReport("t2-divisibility-5mod12", 10, 1, 1,
                        ((17, 1, "synthetic failure"),))
    monkeypatch.setattr(cli.props, "run_all", lambda *a, **k: [broken])
    code, out, err = run(capsys, ["verify-props", "--output", fmt])
    assert code == 2
    assert "red flag" in err
    assert out.encode() == (GOLDEN / f"verify-props-failure.{fmt}").read_bytes()


def test_consistency_error_exits_2(capsys, monkeypatch):
    from eta26.errors import ConsistencyError

    def boom(n):
        raise ConsistencyError("synthetic")

    monkeypatch.setattr(cli, "p26_cm", boom)
    code, _, err = run(capsys, ["coeff", "9", "--method", "cm"])
    assert code == 2
    assert "red flag" in err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv", [
    ["scan", "0", "60"],
    ["mt-check", "25", "0", "30"],
    ["mt-check", "49", "0", "30"],
    ["classify", "26"],
    ["verify-props", "--prime-bound", "400", "--exp-bound", "4", "--l-bound", "2"],
    ["coeff", "9", "--method", "both"],
    # each window holds one index whose 12n + 1 (13^4, 13^6) fails the gate
    ["mt-check", "25", "2370", "2390"],
    ["mt-check", "49", "402225", "402245"],
    # six of these 12n + 13 have no prime below 1000 and are not prime, for
    # example 62617 * 153313 at n = 800000009; recorded while factorize
    # still trial-divided every m below 1e10 by the primes below 1e5
    ["scan", "800000000", "800000060"],
    # sqrt(12 * 1000000000060 + 13) is about 3.5e6, past the primes a range
    # sieve divides out; the window holds 23 zeros
    ["scan", "1000000000000", "1000000000060"],
    # 7 divides every 12(49n + 3) + 13 = 49(12n + 1), near 5.9e10
    ["mt-check", "49", "100000000", "100000030"],
])
def test_golden_output_bytes(capsys, argv, fmt):
    # stdout recorded before records were rendered in one place
    code, out, _ = run(capsys, argv + ["--output", fmt])
    assert code == 0
    expected = (GOLDEN / f"{'-'.join(argv)}.{fmt}").read_bytes()
    assert out.encode() == expected


def test_golden_coeff_at_a_prime_near_1e14(capsys):
    # 12 * 8333333333354 + 13 = 100000000000261 is prime; stdout recorded
    # when quadrep still enumerated up to sqrt(p)
    code, out, _ = run(capsys, ["coeff", "8333333333354", "--output", "json"])
    assert code == 0
    assert out.encode() == (GOLDEN / "coeff-8333333333354.json").read_bytes()


@pytest.mark.parametrize("n", [
    833335783334770,  # 12n + 13 = 100000081 * 100000213, both 1 mod 12
    3257063801,  # 12n + 13 = 5^8 * 100057, past 1e10
    833383333,  # 12n + 13 = 100003^2, past 1e10 with no sieve factor
    833340683338739,  # 12n + 13 = 100000801 * 100000081
    833346983389202,  # 12n + 13 = 100000801 * 100000837
    # 12n + 13 = 58740825590497 * 69173203083529, both 1 mod 12
    338607588155467189386635325,
])
def test_golden_coeff_at_composite_large_indices(capsys, n):
    # stdout recorded when factorize still trial-divided every m to 1e5
    # (the first two), while it took the sieve primes out of every m past
    # 1e10 by a gcd with their product (the third), before it tried
    # Pollard p - 1 ahead of Brent (the next two), or, for the last, with
    # sympy.factorint in place of factorize (tests/record_coeff_golden.py),
    # while factorize still ran out of budget on this 12n + 13
    argv = ["coeff", str(n), "--method", "cm"]
    code, out, _ = run(capsys, argv + ["--output", "json"])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{'-'.join(argv)}.json").read_bytes()


def test_golden_coeff_5000_both(capsys):
    # stdout recorded when the series oracle made r sparse passes
    code, out, _ = run(capsys, ["coeff", "5000", "--method", "both", "--output", "json"])
    assert code == 0
    assert out.encode() == (GOLDEN / "coeff-5000---method-both.json").read_bytes()


def test_golden_selftest_bytes(capsys):
    # the only command without --output; stdout recorded before the
    # bounds moved into the argparse types
    argv = ["selftest", "--limit", "60", "--prime-bound", "400",
            "--exp-bound", "4", "--l-bound", "2"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{'-'.join(argv)}.text").read_bytes()


def _module_env():
    """The environment for `python -m eta26.cli` on this checkout's src/."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    env = _module_env()

    def eta26(*argv):
        return subprocess.run([sys.executable, "-m", "eta26.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    ok = eta26("coeff", "9", "--method", "both")
    assert ok.returncode == 0
    assert ok.stdout.encode() == (GOLDEN / "coeff-9---method-both.text").read_bytes()
    bad = eta26("coeff", "-4")
    assert bad.returncode == 1
    assert bad.stderr.startswith("error: ")
    assert bad.stdout == ""


def test_closed_stdout_exits_1_without_traceback():
    # the reader stops after one record, as `eta26 scan 0 20000 | head -1` does
    argv = [sys.executable, "-m", "eta26.cli", "scan", "0", "20000", "--output", "json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_module_env()) as proc:
        assert proc.stdout.readline().startswith(b'{"n":0,')
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_USAGE
    assert b"Traceback" not in err
    assert b"BrokenPipeError" not in err


@pytest.mark.parametrize("argv, evaluator, last", [
    (["scan", "0", "60"], "apply_theorems", 60),
    (["mt-check", "25", "0", "30"], "check_family", 30),
])
def test_range_commands_write_records_before_the_last_index(monkeypatch, argv,
                                                            evaluator, last):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    real = getattr(classify, evaluator)
    seen_at_last = []

    def watched(*args):  # (n, fac), after the family for check_family
        if args[-2] == last:
            seen_at_last.append(out.getvalue())
        return real(*args)

    monkeypatch.setattr(classify, evaluator, watched)
    assert cli.main(argv + ["--output", "json"]) == 0
    assert len(seen_at_last) == 1
    assert seen_at_last[0].startswith('{"n":')
    assert out.getvalue().encode() == (GOLDEN / f"{'-'.join(argv)}.json").read_bytes()


def _count_calls(monkeypatch, name, modules):
    """Record the argument of every call of name, as each module looks it up."""
    calls = []
    for mod in modules:
        real = getattr(mod, name)

        def counted(m, *rest, _real=real):
            calls.append(m)
            return _real(m, *rest)

        monkeypatch.setattr(mod, name, counted)
    return calls


def test_scan_through_main_factors_each_index_once(monkeypatch, capsys):
    # one sieve factors the window: each index gets one factorization, and
    # below the sieve's prime bound one factorize call, for the first index,
    # and no is_prime call
    built = []
    real_init = arith.Factorization.__post_init__

    def counted_init(self, _certified):
        built.append(self.value)
        real_init(self, _certified)

    monkeypatch.setattr(arith.Factorization, "__post_init__", counted_init)
    factored = _count_calls(monkeypatch, "factorize", (arith, hecke))
    tested = _count_calls(monkeypatch, "is_prime", (arith, hecke))
    code, out, _ = run(capsys, ["scan", "0", "50", "--output", "json"])
    assert code == 0
    assert len(out.splitlines()) == 52
    assert built == [12 * n + 13 for n in range(51)]
    assert factored == [13]
    assert tested == []


def test_scan_through_main_certifies_each_index_at_most_once(monkeypatch, capsys):
    # sqrt(12 * 1000000300 + 13) is past the sieve's prime bound, so a
    # cofactor past SIEVE_BOUND ** 2 is certified by factorize; the prime
    # values read the primes without testing primality again
    calls = _count_calls(monkeypatch, "is_prime", (arith, hecke))
    monkeypatch.setattr(hecke, "_SMALL_VALUES", {})
    code, out, _ = run(capsys, ["scan", "1000000000", "1000000300", "--output", "json"])
    assert code == 0
    assert len(out.splitlines()) == 302
    assert 0 < len(calls) <= 301


def test_scan_red_flag_mid_range_keeps_the_records_before_it(monkeypatch, capsys):
    real = classify.apply_theorems

    def faulty(n, fac):
        if n == 40:
            raise ConsistencyError("synthetic inexact division at n=40")
        return real(n, fac)

    monkeypatch.setattr(classify, "apply_theorems", faulty)
    code, out, err = run(capsys, ["scan", "0", "60", "--output", "json"])
    assert code == 2
    assert err.startswith("red flag: ")
    golden = (GOLDEN / "scan-0-60.json").read_text().splitlines(keepends=True)
    assert out == "".join(golden[:40])


def _spoil(monkeypatch, evaluator, at, profile=(), **changes):
    """Make classify.<evaluator> return an altered report at index at."""
    real = getattr(classify, evaluator)

    def spoiled(*args):  # (n, fac), after the family for check_family
        report = real(*args)
        if args[-2] != at:
            return report
        spoilt = dataclasses.replace(report.profile, **dict(profile))
        return dataclasses.replace(report, profile=spoilt, **changes)

    monkeypatch.setattr(classify, evaluator, spoiled)


@pytest.mark.parametrize("fmt, summary_err", [
    ("json", ""),
    ("csv", "zeros: 2, explained: 1, unexplained: [9]\n"),
])
def test_scan_red_flag_stderr(monkeypatch, capsys, fmt, summary_err):
    # n = 9 (m = 121) is a cond-II zero: hide cond II and its zero
    # prediction, and flag n = 1
    _spoil(monkeypatch, "apply_theorems", 9, profile={"cond_ii": False},
           predicted="no-prediction", explanation=())
    _spoil(monkeypatch, "apply_theorems", 1, predicted="zero")  # p26(1) = -26
    code, out, err = run(capsys, ["scan", "0", "30", "--output", fmt])
    assert code == 2
    assert err == (summary_err + "red flag: 1 inconsistent reports, "
                   "unexplained zeros [9]\n")
    if fmt == "json":
        assert json.loads(out.splitlines()[-1])["summary"] == {
            "start": 0, "end": 30, "zero_count": 2,
            "explained_zero_count": 1, "unexplained_zeros": [9]}


def test_selftest_fails_on_an_unexplained_zero(monkeypatch, capsys):
    # n = 9 (m = 121) is a cond-II zero: hide cond II and its zero prediction
    _spoil(monkeypatch, "apply_theorems", 9, profile={"cond_ii": False},
           predicted="no-prediction", explanation=())
    code, out, _ = run(capsys, ["selftest", "--limit", "40", "--prime-bound", "300",
                                "--exp-bound", "4", "--l-bound", "1"])
    assert code == 2
    assert "selftest no unexplained zeros: FAIL" in out.splitlines()
    assert out.count("FAIL") == 1


def test_selftest_checks_cm_against_series_over_the_range_sieve(monkeypatch, capsys):
    # every index of the sweep is evaluated on the sieve's factorization of
    # 12n + 13, and one skewed value fails the check at its index
    calls = []

    def skewed(n, fac=None):
        calls.append((n, fac))
        return hecke.p26_cm(n, fac) + (n == 17)

    monkeypatch.setattr(cli, "p26_cm", skewed)
    code, out, _ = run(capsys, ["selftest", "--limit", "40", "--prime-bound", "300",
                                "--exp-bound", "4", "--l-bound", "1"])
    assert [n for n, _ in calls] == list(range(41))
    assert all(fac is not None and fac.value == 12 * n + 13 for n, fac in calls)
    assert code == 2
    assert "selftest cm = series on [0, 40]: FAIL  (first mismatch at n=17)" in out.splitlines()
    assert out.count("FAIL") == 1


def test_mt_check_violation_stderr_and_summary(monkeypatch, capsys):
    _spoil(monkeypatch, "check_family", 3, predicted="zero")  # 12n + 1 = 37, nonzero
    code, out, err = run(capsys, ["mt-check", "25", "0", "10", "--output", "json"])
    assert code == 2
    assert err == "red flag: biconditional violated at n=[76]\n"
    assert json.loads(out.splitlines()[-1])["summary"] == {
        "checked": 11, "gated": 11, "violations": [76]}


def test_vanishing_json_is_the_encoded_record():
    # the one format string writes what the generic encoder writes of the record
    encode = json.JSONEncoder(separators=(",", ":")).encode
    streams = [classify.RangeStream(0, 3000)]
    streams += [classify.RangeStream(0, 1000, mult) for mult in classify.FAMILIES]
    seen = 0
    for stream in streams:
        for report in stream:
            assert cli._vanishing_json(report) == encode(cli._vanishing_record(report))
            seen += 1
    assert seen == 3001 + 2 * 1001


def test_series_term_budget_exits_1_with_golden_stderr(capsys):
    argv = ["coeff", "1000000", "--method", "series"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.encode() == (GOLDEN / f"{'-'.join(argv)}.stderr").read_bytes()
