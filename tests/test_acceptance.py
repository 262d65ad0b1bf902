"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they pass.  Every check is exact integer equality; there are no
tolerances anywhere.
"""

import time

import pytest

from eta26 import (
    P26_DENOMINATOR,
    AlgInt3,
    RangeStream,
    check_family,
    coeff_bundle,
    eta_power_series,
    p26_cm,
    p26_oracle,
    t1_prime,
    t2_prime,
)
from eta26.classify import PREDICT_NONE
from eta26.props import run_all

SCAN_LIMIT = 2000

EULER_26 = (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1,
            0, 0, -1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1)
JACOBI_21 = (1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9,
             0, 0, 0, 0, -11, 0, 0, 0, 0, 0, 13)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} | {desc}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def scan_result():
    stream = RangeStream(0, SCAN_LIMIT)
    return list(stream), stream


def test_criterion_01_t2_vector():
    value = t2_prime(5)
    _report(1, "t2(5) = 20592 exactly", value == 20592, f"got {value}")


def test_criterion_02_t1_vector():
    value = t1_prime(7)
    _report(2, "t1(7) = -102960*sqrt(-3) exactly",
            value == AlgInt3(0, -102960), f"got {value}")


def test_criterion_03_euler_jacobi_prefixes():
    euler = eta_power_series(1, 26).coeffs
    jacobi = eta_power_series(3, 21).coeffs
    _report(3, "Euler and Jacobi expansion prefixes",
            euler == EULER_26 and jacobi == JACOBI_21)


def test_criterion_04_cm_equals_oracle():
    start = time.monotonic()
    oracle = eta_power_series(26, SCAN_LIMIT)
    mismatches = [n for n in range(SCAN_LIMIT + 1) if p26_cm(n) != oracle[n]]
    elapsed = time.monotonic() - start
    _report(4, f"cm = series for 0 <= n <= {SCAN_LIMIT}",
            not mismatches and elapsed < 300,
            f"{len(mismatches)} mismatches in {elapsed:.2f}s")


def test_criterion_05_vanishing_conditions_sound(scan_result):
    reports, _ = scan_result
    bad = [r.profile.n for r in reports
           if (r.profile.cond_i or r.profile.cond_ii) and r.p26_value != 0]
    _report(5, "cond I / cond II imply a zero on the scan range",
            not bad, f"exceptions: {bad[:5]}")


def test_criterion_06_nonvanishing_conditions_sound(scan_result):
    reports, _ = scan_result
    flags = ("prime_power", "odd_exp_5", "div_25", "div_49", "odd_exp_7")
    bad = [
        (r.profile.n, flag)
        for r in reports
        for flag in flags
        if getattr(r.profile, flag) and r.p26_value == 0
    ]
    _report(6, "nonvanishing hypotheses imply a nonzero on the scan range",
            not bad, f"exceptions: {bad[:5]}")


def test_criterion_07_biconditionals():
    bad = []
    gated = 0
    for n in range((SCAN_LIMIT - 1) // 25 + 1):
        rep = check_family(25, n)
        if rep.predicted != PREDICT_NONE:
            gated += 1
            if not rep.consistent:
                bad.append(("25n+1", n))
    for n in range((SCAN_LIMIT - 3) // 49 + 1):
        rep = check_family(49, n)
        if rep.predicted != PREDICT_NONE:
            gated += 1
            if not rep.consistent:
                bad.append(("49n+3", n))
    _report(7, "25n+1 and 49n+3 vanishing biconditionals on gated n",
            not bad, f"{gated} gated checks, exceptions: {bad[:5]}")


def test_criterion_08_props_suite():
    start = time.monotonic()
    reports = run_all()
    elapsed = time.monotonic() - start
    suites_ok = all(r.ok for r in reports)
    primes = (29, 257, 677)
    residues = tuple(t2_prime(p) % 7 for p in primes)
    stated = (0, 2, 2)
    residues_ok = residues == stated
    # for p = 5 mod 12, 12n + 13 = 5p gives t2(p) = -792 * p26(n): the t1
    # part vanishes there and t2(5) = 20592 (criterion 1) fixes the factor
    oracle = tuple(-792 * p26_oracle((5 * p - 13) // 12) for p in primes)
    oracle_ok = all(t2_prime(p) == o for p, o in zip(primes, oracle))
    detail = (
        f"suites {'clean' if suites_ok else 'DIRTY'} in {elapsed:.2f}s; "
        f"residues mod 7 for {primes}: computed {residues}, stated {stated}; "
        f"oracle t2 = -792 * p26((5p - 13) / 12) = {oracle}"
    )
    _report(8, "verifier suites clean at default bounds + reference residues",
            suites_ok and residues_ok and oracle_ok and elapsed < 60, detail)


def test_criterion_09_combination_divisibility():
    bad = []
    for n in range(SCAN_LIMIT + 1):
        bundle = coeff_bundle(12 * n + 13)
        comb = bundle.combination()
        if comb.b != 0 or comb.a % P26_DENOMINATOR != 0:
            bad.append(n)
    _report(9, "combination exactly divisible, sqrt(-3) part zero",
            not bad, f"exceptions: {bad[:5]}")


def test_criterion_10_no_unexplained_zeros(scan_result):
    _, stream = scan_result
    _report(10, f"every zero on [0, {SCAN_LIMIT}] is explained",
            stream.unexplained == [],
            f"unexplained: {stream.unexplained[:10]}")
