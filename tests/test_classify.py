import dataclasses
import itertools
import json
from functools import partial
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eta26.arith as arith_mod
import eta26.classify as classify_mod
import eta26.hecke as hecke_mod
from eta26 import (
    RangeStream,
    apply_theorems,
    check_family,
    eta_power_series,
    p26_cm,
)
from eta26.arith import Factorization, factorize
from eta26.classify import (
    FAMILIES,
    ConditionProfile,
    PREDICT_NONE,
    PREDICT_NONZERO,
    PREDICT_ZERO,
    VanishingReport,
)
from eta26.cli import main
from eta26.errors import ConsistencyError


def _profile_of(n):
    """Every condition flag for one index, from its own factorization."""
    return apply_theorems(n).profile


def test_profile_examples():
    prof = _profile_of(9)
    assert prof.m == 121
    assert prof.cond_ii and not prof.cond_i

    prof = _profile_of(20)
    assert prof.m == 253
    assert prof.cond_i and not prof.cond_ii
    assert not prof.n1 and not prof.n2

    prof = _profile_of(0)
    assert prof.m == 13
    assert prof.n1 and prof.n2
    assert prof.prime_power


def test_profile_rejects_negative():
    # the profile of an index is built by apply_theorems, which checks n
    with pytest.raises(ValueError):
        apply_theorems(-1)


def _reference_profile(n, fac):
    """The flags read prime by prime, with tests mod 4, mod 3 and mod 12."""
    odd = [(p, e) for p, e in fac if e % 2 == 1]
    has_3mod4_odd = any(p % 4 == 3 for p, _ in odd)
    has_2mod3_odd = any(p % 3 == 2 for p, _ in odd)
    witness = any(p % 12 != 11 for p, _ in fac)
    even_shape = all(e % 2 == 0 for p, e in fac if p % 12 in (5, 7, 11))
    gate = {q: all(e % q != q - 1 for p, e in fac if p % 12 == 1) for q in (5, 7)}
    return ConditionProfile(
        n=n, m=fac.value, factorization=fac,
        cond_i=has_3mod4_odd and has_2mod3_odd,
        cond_ii=all(e % 2 == 0 for _, e in fac) and bool(fac.factors)
        and all(p % 12 == 11 for p, _ in fac),
        n1=not has_3mod4_odd and witness,
        n2=not has_2mod3_odd and witness,
        prime_power=len(fac.factors) == 1 and fac.factors[0][0] % 12 != 11,
        odd_exp_5=not has_3mod4_odd and any(p % 12 == 5 for p, _ in odd),
        div_25=even_shape and fac.value % 25 == 0 and gate[5],
        div_49=even_shape and fac.value % 49 == 0 and gate[7],
        odd_exp_7=not has_2mod3_odd and any(p % 12 == 7 for p, _ in odd),
    )


def test_profile_matches_reference_to_30000():
    for n in range(30001):
        prof = _profile_of(n)
        assert prof == _reference_profile(n, prof.factorization), n


# four primes of each class mod 12 that a prime dividing 12n + 13 can have
_PRIMES_BY_CLASS = (13, 37, 61, 73, 5, 17, 29, 41, 7, 19, 31, 43, 11, 23, 47, 59)


@given(st.dictionaries(st.sampled_from(_PRIMES_BY_CLASS), st.integers(1, 6),
                       max_size=6))
@settings(max_examples=300)
def test_profile_matches_reference_on_built_factorizations(exponents):
    # the class form needs only primes prime to 6, not m = 1 (mod 12)
    factors = tuple(sorted(exponents.items()))
    fac = Factorization(prod(p**e for p, e in factors), factors)
    flags, _ = classify_mod._rules(classify_mod._class_state(fac))
    assert ConditionProfile(0, fac.value, fac, *flags) == _reference_profile(0, fac)


def test_apply_theorems_examples():
    rep = apply_theorems(0)
    assert rep.predicted == PREDICT_NONZERO
    assert "prime-power" in rep.explanation
    assert rep.p26_value == 1 and rep.consistent

    rep = apply_theorems(9)
    assert rep.predicted == PREDICT_ZERO
    assert rep.explanation == ("cond-II",)
    assert rep.p26_value == 0 and rep.consistent

    rep = apply_theorems(26)  # m = 325 = 5^2 * 13
    assert rep.predicted == PREDICT_NONZERO
    assert "25-with-even-shape" in rep.explanation
    assert rep.p26_value != 0 and rep.consistent

    rep = apply_theorems(20)
    assert rep.predicted == PREDICT_ZERO
    assert rep.explanation == ("cond-I",)
    assert rep.p26_value == 0 and rep.consistent


def _reference_consistent(report):
    """The rule as three branches: a zero rule, else a nonzero rule, else none."""
    prof = report.profile
    if prof.cond_i or prof.cond_ii:
        return report.p26_value == 0
    if prof.prime_power or prof.odd_exp_5 or prof.div_25 or prof.div_49 or prof.odd_exp_7:
        return report.p26_value != 0
    return True


_RULE_NAMES = ("cond-I", "cond-II", "prime-power", "odd-exp-5-mod-12", "25-with-even-shape",
               "49-with-even-shape", "odd-exp-7-mod-12")


def test_verdict_over_every_combination_of_rule_flags(monkeypatch):
    # two zero rules, then five nonzero rules; a zero and a nonzero hit
    # together contradict each other, in the table and at the index
    for flags in itertools.product((False, True), repeat=7):
        names = tuple(name for name, flag in zip(_RULE_NAMES, flags) if flag)
        if any(flags[:2]) and any(flags[2:]):
            with pytest.raises(ConsistencyError, match="^contradictory predictions"):
                classify_mod._verdict(flags)
        else:
            assert classify_mod._verdict(flags) == (
                PREDICT_ZERO if any(flags[:2]) else PREDICT_NONZERO if names else PREDICT_NONE,
                names)
    # a contradiction at an index names the index
    monkeypatch.setattr(classify_mod, "_rules", lambda state: classify_mod._verdict((True,) * 7))
    with pytest.raises(ConsistencyError, match="^contradictory predictions.* at n=9$"):
        apply_theorems(9)


def test_consistent_matches_three_branch_rule_to_5000():
    for rep in RangeStream(0, 5000):
        # the computed value, and a wrong one, which every prediction contradicts
        wrong = dataclasses.replace(rep, p26_value=int(rep.p26_value == 0))
        assert rep.consistent == _reference_consistent(rep), rep.profile.n
        assert wrong.consistent == _reference_consistent(wrong), rep.profile.n
        assert wrong.consistent == (rep.predicted == PREDICT_NONE)


def test_no_prediction_outside_hypotheses():
    # first n whose m is covered by no condition, found by inspection
    for n in range(200):
        rep = apply_theorems(n)
        if rep.predicted == PREDICT_NONE:
            assert rep.consistent
            assert rep.explanation == ()
            break
    else:
        pytest.fail("expected at least one unpredicted index below 200")


# each family check through check_family
CHECKS_25 = (partial(check_family, 25),)
CHECKS_49 = (partial(check_family, 49),)


def test_check_25n_plus_1():
    for check in CHECKS_25:
        rep = check(1)  # 12n+1 = 13
        assert rep.predicted == PREDICT_NONZERO
        assert rep.explanation == ("iff-25n-plus-1",)
        assert rep.profile.n == 26
        assert rep.consistent and rep.p26_value != 0

        rep = check(21)  # 12n+1 = 253 = 11 * 23, both odd
        assert rep.predicted == PREDICT_ZERO
        assert rep.profile.n == 526
        assert rep.consistent and rep.p26_value == 0

        rep = check(2380)  # 12n+1 = 13^4 violates the mod-5 gate
        assert rep.predicted == PREDICT_NONE
        assert rep.explanation == ("mod-5-exponent-gate-failed",)
        assert rep.consistent


def test_check_49n_plus_3():
    for check in CHECKS_49:
        rep = check(1)
        assert rep.predicted == PREDICT_NONZERO
        assert rep.explanation == ("iff-49n-plus-3",)
        assert rep.profile.n == 52
        assert rep.consistent and rep.p26_value != 0

        rep = check(21)
        assert rep.predicted == PREDICT_ZERO
        assert rep.profile.n == 1032
        assert rep.consistent and rep.p26_value == 0

        # 12n+1 = 13^6 violates the mod-7 gate
        rep = check((13**6 - 1) // 12)
        assert rep.predicted == PREDICT_NONE
        assert rep.explanation == ("mod-7-exponent-gate-failed",)
        assert rep.consistent


def test_mt_checks_reject_negative():
    for check in CHECKS_25 + CHECKS_49:
        with pytest.raises(ValueError):
            check(-1)


def test_check_family_rejects_unknown_family():
    for mult in (0, 5, 7, 36, 121):
        with pytest.raises(ValueError):
            check_family(mult, 1)


def test_mt_gate_detection_uses_1_mod_12_primes_only():
    # 12n+1 = 11^4: exponent 4 on a prime not 1 mod 12 must not trip the gate
    n = (11**4 - 1) // 12
    rep = check_family(25, n)
    assert rep.predicted != PREDICT_NONE


# reference: the family table with stored offsets, and the gate and cond I
# read off a second factorization, of 12n + 1
_REFERENCE_FAMILIES = {25: (1, 5), 49: (3, 7)}


def _reference_check_family(mult, n):
    offset, q = _REFERENCE_FAMILIES[mult]
    base = factorize(12 * n + 1)
    k = mult * n + offset
    prof = _reference_profile(k, factorize(12 * k + 13))
    value = p26_cm(k)
    if any(e % q == q - 1 for p, e in base if p % 12 == 1):
        report = VanishingReport(
            prof, value, PREDICT_NONE, (f"mod-{q}-exponent-gate-failed",)
        )
        assert report.consistent
        return report
    odd = [p for p, e in base if e % 2 == 1]
    rhs = any(p % 4 == 3 for p in odd) and any(p % 3 == 2 for p in odd)
    report = VanishingReport(
        prof,
        value,
        PREDICT_ZERO if rhs else PREDICT_NONZERO,
        (f"iff-{mult}n-plus-{offset}",),
    )
    assert report.consistent == ((value == 0) == rhs), n
    return report


def test_families_derive_offset_from_mult():
    for mult, q in FAMILIES.items():
        assert mult == q * q
        assert 12 * ((mult - 13) // 12) + 13 == mult
        assert q % 12 != 1
    assert set(FAMILIES) == set(_REFERENCE_FAMILIES)


@pytest.mark.parametrize("mult", sorted(_REFERENCE_FAMILIES))
def test_check_family_matches_reference_to_3000(mult):
    for n in range(3001):
        assert check_family(mult, n) == _reference_check_family(mult, n), n


@pytest.mark.parametrize("mult", sorted(_REFERENCE_FAMILIES))
@pytest.mark.parametrize("n", [2380, (13**6 - 1) // 12, (11**4 - 1) // 12])
def test_check_family_matches_reference_at_gate_shapes(mult, n):
    # 12n + 1 = 13^4, 13^6 (1 mod 12, gate exponents) and 11^4 (not 1 mod 12)
    assert check_family(mult, n) == _reference_check_family(mult, n)


@given(st.sampled_from(sorted(_REFERENCE_FAMILIES)),
       st.integers(min_value=0, max_value=10**7))
@settings(max_examples=50)
def test_check_family_matches_reference(mult, n):
    assert check_family(mult, n) == _reference_check_family(mult, n)


def test_scan_single_point():
    stream = RangeStream(0, 0)
    reports = list(stream)
    assert len(reports) == 1
    assert reports[0].p26_value == 1
    assert stream.zero_count == 0
    assert stream.unexplained == []


def test_scan_zeros_match_conditions_to_100():
    table = eta_power_series(26, 100)
    stream = RangeStream(0, 100)
    for rep in stream:
        n = rep.profile.n
        assert rep.p26_value == table[n]
        covered = rep.profile.cond_i or rep.profile.cond_ii
        assert (rep.p26_value == 0) == covered, n
        assert rep.consistent
    assert stream.unexplained == []
    assert stream.zero_count == stream.explained
    assert stream.zero_count == sum(1 for n in range(101) if table[n] == 0)


def test_scan_soundness_and_exclusivity_to_300():
    for rep in RangeStream(0, 300):
        prof = rep.profile
        assert not (prof.cond_i and prof.n1)
        assert not (prof.cond_i and prof.n2)
        if prof.cond_i or prof.cond_ii:
            assert rep.p26_value == 0
        for flag in ("prime_power", "odd_exp_5", "div_25", "div_49", "odd_exp_7"):
            if getattr(prof, flag):
                assert rep.p26_value != 0, (prof.n, flag)


def test_scan_validation():
    # the bounds and the family are checked when the stream is made, not on
    # its first read
    with pytest.raises(ValueError):
        RangeStream(5, 3)
    with pytest.raises(ValueError):
        RangeStream(-1, 3)
    for family in (99, 0):
        with pytest.raises(ValueError, match=f"unknown family {family}"):
            RangeStream(0, 10, family)
    assert RangeStream(0, 10, 25).family == 25


def test_range_stream_counts_each_read_afresh():
    # six zeros on [0, 60], all explained; a second read must not add to them
    stream = RangeStream(0, 60)

    def read():
        reports = list(stream)
        return reports, (stream.zero_count, stream.explained, stream.gated,
                         stream.unexplained, stream.inconsistent)

    first = read()
    assert first[1] == (6, 6, 60, [], [])
    assert read() == first


def _cli_lines(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()


def test_report_record_schema(capsys):
    (line,) = _cli_lines(capsys, ["classify", "20", "--output", "json"])
    rec = json.loads(line)
    assert list(rec.keys()) == [
        "n", "m", "factors", "condI", "condII", "n1", "n2",
        "theorems", "p26", "predicted", "consistent",
    ]
    assert rec["n"] == 20
    assert rec["m"] == 253
    assert rec["factors"] == [[11, 1], [23, 1]]
    assert rec["p26"] == "0"
    assert isinstance(rec["p26"], str)
    parsed = json.loads(json.dumps(rec))
    assert parsed == rec


def test_csv_row_matches_header(capsys):
    (line,) = _cli_lines(capsys, ["classify", "20", "--output", "json"])
    header, row = _cli_lines(capsys, ["classify", "20", "--output", "csv"])
    assert header.split(",") == list(json.loads(line))
    assert len(row.split(",")) == len(header.split(","))
    assert row.startswith("20,253,11^1 23^1,true,false,false,false,cond-I,0,zero,true")


def test_summary_record(capsys):
    rec = json.loads(_cli_lines(capsys, ["scan", "0", "30", "--output", "json"])[-1])["summary"]
    assert rec["start"] == 0 and rec["end"] == 30
    assert rec["zero_count"] == rec["explained_zero_count"]
    assert rec["unexplained_zeros"] == []


def test_value_agrees_with_direct_cm():
    for n in (0, 9, 20, 26, 51):
        assert apply_theorems(n).p26_value == p26_cm(n)


def _count_factorize(monkeypatch) -> list[int]:
    """Count factorize calls through classify, hecke and arith, the modules that make them."""
    calls = []
    real = arith_mod.factorize

    def counted(m):
        calls.append(m)
        return real(m)

    for mod in (arith_mod, classify_mod, hecke_mod):
        monkeypatch.setattr(mod, "factorize", counted)
    return calls


def test_scan_factors_each_index_once(monkeypatch):
    # scan reads one sieve over the window: below the sieve's prime bound
    # it factorizes only the first index, 13, and makes no is_prime call
    calls = _count_factorize(monkeypatch)
    tested, real_is_prime = [], arith_mod.is_prime
    for mod in (arith_mod, hecke_mod):
        monkeypatch.setattr(mod, "is_prime", lambda m: tested.append(m) or real_is_prime(m))
    reports = list(RangeStream(0, 50))
    assert len(reports) == 51
    assert [r.profile.factorization.value for r in reports] == [12 * n + 13 for n in range(51)]
    assert calls == [13]
    assert tested == []


def test_check_family_factors_once_per_index(monkeypatch):
    # 12(mult*n + offset) + 13 = mult * (12n + 1) is the only number factored
    calls = _count_factorize(monkeypatch)
    for mult in (25, 49):
        calls.clear()
        for n in range(20):
            check_family(mult, n)
        assert calls == [mult * (12 * n + 1) for n in range(20)], mult


def test_range_streams_build_no_coeff_bundle(monkeypatch):
    # a range reads p26 from the product of prime values with no CoeffBundle
    built = []
    real = hecke_mod.CoeffBundle.__post_init__

    def counted(bundle):
        built.append(bundle.m)
        real(bundle)

    monkeypatch.setattr(hecke_mod.CoeffBundle, "__post_init__", counted)
    for family in (None, *FAMILIES):
        assert len(list(RangeStream(0, 3000, family))) == 3001
    assert built == []
    hecke_mod.coeff_bundle(13)
    assert built == [13]


@pytest.mark.parametrize("family", [None, *FAMILIES])
@pytest.mark.parametrize("start", [0, 10**9])
def test_range_stream_equals_its_evaluator_per_index(family, start):
    # the stream picks the progression and evaluator of its family itself;
    # 601 indices span the first index and two sieve blocks
    end = start + 600
    evaluate = apply_theorems if family is None else partial(check_family, family)
    stream = classify_mod.RangeStream(start, end, family)
    reports = list(stream)
    assert reports == [evaluate(n) for n in range(start, end + 1)]
    zeros = [r for r in reports if r.p26_value == 0]
    assert stream.zero_count == len(zeros)
    assert stream.explained == sum(r.predicted == PREDICT_ZERO for r in zeros)
    assert stream.unexplained == [r.profile.n for r in zeros if r.predicted != PREDICT_ZERO]
    assert stream.gated == sum(r.predicted != PREDICT_NONE for r in reports)
    assert stream.inconsistent == [r.profile.n for r in reports if not r.consistent]


def test_uncovered_indices_have_odd_exponents_only_at_1_mod_12():
    # where no condition applies, every prime to an odd power is 1 (mod 12):
    # an odd count of odd-power primes in classes 5, 7, 11 would put one in
    # each (their counts share one parity, as m = 1 (mod 12)), and cond I holds
    uncovered = 0
    for n in range(20001):
        report = apply_theorems(n)
        if report.predicted != PREDICT_NONE:
            continue
        uncovered += 1
        odd = {p % 12 for p, e in report.profile.factorization if e % 2}
        assert odd <= {1}, n
    assert uncovered == 1711
