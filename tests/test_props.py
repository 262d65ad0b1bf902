import json
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eta26 import (
    BudgetError, arith, hecke, p26_oracle, primes_below, props, t1_prime,
    t2_prime, t_prime_powers,
)
from eta26.cli import main
from eta26.hecke import AlgInt3
from eta26.quadrep import EisRep, GaussRep
from eta26.props import run_all


def _reports(prime_bound, exponent_bound, l_bound=1):
    """run_all's reports at these bounds, by prop id."""
    return {r.prop_id: r for r in run_all(prime_bound, exponent_bound, l_bound)}


def _triple(p):
    """(a, b, c) with t1(p) = a + b*sqrt(-3) and t2(p) = c, from the public values."""
    t1 = t1_prime(p)
    return t1.a, t1.b, t2_prime(p)


def _powers(p, alpha_max):
    """[(a_r, b_r, c_r) for r = 0..alpha_max]: t1(p^r) = a_r + b_r*sqrt(-3), t2(p^r) = c_r."""
    return list(islice(t_prime_powers(p, *_triple(p)), alpha_max + 1))


def _lanes(p):
    """t1(p) and t2(p) as the pairs (x, y) of x + y*sqrt(-3) that _residues takes."""
    a, b, c = _triple(p)
    return (a, b), (c, 0)


def test_t2_reference_residues_mod_7():
    assert t2_prime(29) % 7 == 0
    assert t2_prime(677) % 7 == 2
    # the normalization fixed by t2(5) = 20592 puts t2(257) in residue 2;
    # cross-checked against the series oracle through m = 5 * 257 = 1285
    assert t2_prime(257) == -792 * p26_oracle(106)
    assert t2_prime(257) % 7 == 2


def test_t2_divisibility_sweep():
    report = _reports(800, 6)["t2-divisibility-5mod12"]
    assert report.ok
    assert report.checked == sum(1 for p in primes_below(800) if p % 12 == 5)
    assert report.prop_id == "t2-divisibility-5mod12"


def test_t1_divisibility_values():
    assert t1_prime(7).b == -102960 == 5 * (-20592)
    assert t1_prime(7).b % 7 != 0
    for p in (19, 31):
        assert t1_prime(p).b % 35 == 0
    report = _reports(800, 6)["t1-divisibility-7mod12"]
    assert report.ok and report.checked > 0


def test_split_divisibility_values():
    powers = _powers(13, 6)
    assert powers[4][2] % 5 == 0
    assert powers[3][2] % 5 != 0
    assert powers[6][0] % 7 == 0
    assert powers[5][0] % 7 != 0
    assert powers[0][2] == 1
    report = _reports(800, 14)["divisibility-1mod12"]
    assert report.ok and report.checked > 0


def test_periodicity_direct_at_13():
    powers = _powers(13, 14)
    sign = 1 if t2_prime(13) % 5 == 2 else -1
    for k in range(6):
        assert powers[5 + k][2] % 5 == (sign * powers[k][2]) % 5
    sign = 1 if t1_prime(13).a % 7 == 2 else -1
    for k in range(8):
        assert powers[7 + k][0] % 7 == (sign * powers[k][0]) % 7


def test_periodicity_sweep():
    report = _reports(800, 0, 2)["periodicity-1mod12"]
    assert report.ok and report.checked > 0


def test_difference_nonvanishing_values():
    assert t1_prime(13).a - t2_prime(13) == 16308864
    a0 = t1_prime(13).a // 2
    b0 = t2_prime(13) // 2
    ta, _, tc = _powers(13, 2)[2]
    assert ta - tc == 4 * (a0 * a0 - b0 * b0)
    # at p = 5: t1(25) = -5^12 and t2(25) = t2(5)^2 - 5^12
    ta, _, tc = _powers(5, 2)[2]
    d = ta - tc
    assert d == -(20592**2) == -424030464
    report = _reports(400, 8)["t1-t2-difference-nonvanishing"]
    assert report.ok and report.checked > 0


@pytest.mark.parametrize("p, exponents", [(13, [1, 2, 3, 4, 5, 6]), (5, [2, 4, 6]), (7, [2, 4, 6])])
def test_difference_verifier_reads_the_first_and_last_exponent(p, exponents):
    # handed t1(p) = t2(p), the claim fails at every exponent it reads:
    # 1..E at p = 1 (mod 12), the even ones up to E at p = 5 and 7
    v = 6
    witnesses = props._difference_nonvanishing(p, False, v, 0, v, 6)
    assert [a for _, a, detail in witnesses if detail == "t1(p^a) = t2(p^a)"] == exponents


def test_difference_verifier_memory_does_not_grow_with_the_exponent():
    # the exact t(p^a) stream holds two entries: a list of all 2000 would
    # take about 11 MiB at p = 13
    tracemalloc.start()
    try:
        assert list(props._difference_nonvanishing(13, False, *_triple(13), 2000)) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_halves_are_odd_at_1_mod_12():
    for p in primes_below(2000):
        if p % 12 != 1:
            continue
        v1, v2 = t1_prime(p).a, t2_prime(p)
        assert v1 % 2 == 0 and (v1 // 2) % 2 == 1
        assert v2 % 2 == 0 and (v2 // 2) % 2 == 1


def test_combination_divisible_by_3_at_split_primes():
    # t1 and t2 agree with their minus branches here, so the coefficient
    # combination at p is 2(t1(p) - t2(p)); always a multiple of 3
    for p in primes_below(2000):
        if p % 12 == 1:
            assert (2 * (t1_prime(p).a - t2_prime(p))) % 3 == 0


def test_report_record_schema(capsys):
    assert main(["verify-props", "--prime-bound", "100", "--exp-bound", "2",
                 "--output", "json"]) == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["prop_id"] == "t2-divisibility-5mod12"
    assert list(rec.keys()) == ["prop_id", "bounds", "checked", "failures"]
    assert rec["bounds"] == {"prime_bound": 100, "exponent_bound": 2}
    assert rec["failures"] == []
    json.dumps(rec)


def test_run_all_order_and_cleanliness():
    reports = run_all(300, 4, 1)
    assert [r.prop_id for r in reports] == [
        "t2-divisibility-5mod12",
        "t1-divisibility-7mod12",
        "divisibility-1mod12",
        "periodicity-1mod12",
        "t1-t2-difference-nonvanishing",
    ]
    assert all(r.ok for r in reports)


def _flip_y_at_5_mod_12(gauss_rep):
    def flipped(p):
        rep = gauss_rep(p)
        if p % 12 != 5:
            return rep
        return GaussRep(p, rep.x, -rep.y, rep.sign_plus)
    return flipped


def _flip_w_at_7_mod_12(eis_rep):
    def flipped(p):
        rep = eis_rep(p)
        if p % 12 != 7:
            return rep
        return EisRep(p, rep.z, -rep.w, rep.sign_plus)
    return flipped


@pytest.fixture
def flip(monkeypatch):
    """Wrap _gauss_rep or _eis_rep as hecke's value core sees it, with a cold cache."""
    def install(name, wrap):
        monkeypatch.setattr(hecke, name, wrap(getattr(hecke, name)))
        hecke._SMALL_VALUES.clear()
    yield install
    monkeypatch.undo()
    hecke._SMALL_VALUES.clear()


def _failing(reports):
    return {r.prop_id for r in reports if not r.ok}


def test_flipped_y_convention_at_5_mod_12_is_reported(flip):
    # the mod-5 and mod-7 claims are symmetric under t2(p) -> -t2(p); only
    # the series oracle fixes the sign
    flip("_gauss_rep", _flip_y_at_5_mod_12)
    assert t2_prime(257) % 7 == 5
    reports = _reports(400, 4, 2)
    assert _failing(reports.values()) == {"t2-divisibility-5mod12"}
    assert [p for p, _, _ in reports["t2-divisibility-5mod12"].failures] == [5, 17, 29]


def test_flipped_w_orientation_at_7_mod_12_is_reported(flip):
    flip("_eis_rep", _flip_w_at_7_mod_12)
    assert t1_prime(7).b == 102960
    reports = _reports(400, 4, 2)
    assert _failing(reports.values()) == {"t1-divisibility-7mod12"}
    assert [p for p, _, _ in reports["t1-divisibility-7mod12"].failures] == [7, 19, 31]


@pytest.mark.parametrize("name, wrap, witness", [
    ("_gauss_rep", _flip_y_at_5_mod_12, "t2(p) != -792"),
    ("_eis_rep", _flip_w_at_7_mod_12, "617760 * t1(p)"),
])
def test_verify_props_exits_2_on_flipped_sign(flip, capsys, name, wrap, witness):
    flip(name, wrap)
    assert main(["verify-props", "--prime-bound", "400", "--output", "json"]) == 2
    assert witness in capsys.readouterr().out


def test_negative_bounds_raise():
    for bounds in ((100, -1, 1), (100, 1, -1)):
        with pytest.raises(ValueError):
            run_all(*bounds)
    # below 14 the verifiers at p = 1 (mod 12) would check no prime, so the
    # bound is refused rather than reported as ok with nothing checked
    with pytest.raises(ValueError, match="prime_bound must be >= 14, got 13$"):
        run_all(13, 3, 3)
    reports = run_all(14, 3, 3)
    assert all(r.ok for r in reports)
    assert [r.checked for r in reports] == [1, 1, 1, 1, 3]


def _skew_t2_at_1_mod_12(monkeypatch):
    real = hecke._prime_values

    def skewed(p):
        a, b, t2 = real(p)
        return (a, b, t2 + 7) if p % 12 == 1 else (a, b, t2)

    monkeypatch.setattr(props, "_prime_values", skewed)
    monkeypatch.setattr(hecke, "_prime_values", skewed)


def test_t2_skew_at_1_mod_12_witnesses_match_golden(monkeypatch):
    # recorded when each verifier still had its own prime loop and
    # recursion; pins every witness and their order
    _skew_t2_at_1_mod_12(monkeypatch)
    rows = []
    for report in run_all(3000, 6, 2):
        rows.append([report.prop_id, report.checked])
        rows.extend([report.prop_id, *witness] for witness in report.failures)
    golden = Path(__file__).parent / "golden" / "run_all-3000-6-2-t2-skew.jsonl"
    assert rows == [json.loads(line) for line in golden.read_text().splitlines()]


def _pairs(values, q):
    return [(x % q, y % q) for x, y, _ in values]


def test_reduced_recursion_matches_exact_below_2000():
    for p in primes_below(2000):
        if p % 12 not in (1, 5, 7):
            continue
        for ta, tb in _lanes(p):
            exact = list(islice(t_prime_powers(p, ta, tb, 0), 31))
            for q in (5, 7):
                assert props._residues(ta, tb, p, 30, q) == _pairs(exact, q), (p, ta, tb, q)


def test_perturbed_reduced_recursion_is_reported(monkeypatch):
    real = props._residues

    def perturbed(ta, tb, p, alpha_max, q):
        out = real(ta, tb, p, alpha_max, q)
        x, y = out[2]
        out[2] = ((x + 1) % q, y)
        return out

    monkeypatch.setattr(props, "_residues", perturbed)
    expected = {
        "t2-divisibility-5mod12": [(p, 5) for p in (5, 17, 29)],
        "t1-divisibility-7mod12": [(p, q) for p in (7, 19, 31) for q in (5, 7)],
        "divisibility-1mod12": [(p, q) for p in (13, 37, 61) for q in (5, 7)],
    }
    reports = _reports(400, 4)
    for prop_id, witnesses in expected.items():
        report = reports[prop_id]
        assert [(p, a, detail) for p, a, detail in report.failures if a is None] == [
            (p, None, f"reduced mod-{q} recursion mismatch") for p, q in witnesses
        ]


def _reference_reduced(ta, tb, p, length, q, chi):
    # the Hecke recursion mod q on pairs, kept apart from props
    step = chi * p**12
    out = [(1 % q, 0), (ta % q, tb % q)]
    for _ in range(length - 1):
        (a1, b1), (a2, b2) = out[-1], out[-2]
        out.append(((ta * a1 - 3 * tb * b1 - step * a2) % q,
                    (ta * b1 + tb * a1 - step * b2) % q))
    return out[: length + 1]


def test_shared_reduced_sequences_match_a_reference_below_2000():
    for p in primes_below(2000):
        if p % 12 not in (1, 5, 7):
            continue
        chi = 1 if p % 4 == 1 else -1
        for ta, tb in _lanes(p):
            for q in (5, 7):
                for length in range(31):
                    assert props._residues(ta, tb, p, length, q) == _reference_reduced(
                        ta, tb, p, length, q, chi), (p, ta, tb, q, length)


def _state(ta, tb, p, q):
    """_period's key for t(p) = ta + tb*sqrt(-3) mod q."""
    chi = 1 if p % 4 == 1 else -1
    return ta % q, tb % q, chi * p**12 % q, q


def test_cached_period_matches_a_reference_past_two_periods():
    states = set()
    for p in primes_below(2000):
        if p % 12 not in (1, 5, 7):
            continue
        chi = 1 if p % 4 == 1 else -1
        for ta, tb in _lanes(p):
            for q in (5, 7):
                seq, start = props._period(*_state(ta, tb, p, q))
                states.add(_state(ta, tb, p, q))
                period = len(seq) - 2 - start
                assert period >= 1
                # seq ends at the first state, a pair of consecutive entries,
                # that repeats: every earlier state is new
                pairs = list(zip(seq, seq[1:]))
                assert len(set(pairs[:-1])) == len(pairs) - 1
                assert pairs[-1] == pairs[start]
                length = start + 2 * period + 3
                reference = _reference_reduced(ta, tb, p, length, q, chi)
                assert list(seq) == reference[: len(seq)]
                assert props._residues(ta, tb, p, length, q) == reference, (p, ta, tb, q)
    assert len(states) <= 2 * (5**2 + 7**2)


@pytest.mark.parametrize("p", [5, 7])
def test_period_at_p_equal_q_has_a_one_entry_preperiod(p):
    # chi * p^12 = 0 mod p, and the lane that vanishes at p (t1 at 5, t2 at
    # 7) gives 1, 0, 0, ...: the state never comes back to (1, 0), (0, 0)
    zero, unit = _lanes(p) if p == 5 else reversed(_lanes(p))
    assert zero == (0, 0)
    seq, start = props._period(*_state(*zero, p, p))
    assert (seq, start) == (((1, 0), (0, 0), (0, 0), (0, 0)), 1)
    assert props._residues(*zero, p, 6, p) == [(1, 0)] + [(0, 0)] * 6
    # the other lane is a unit mod p, so t(p^r) = t(p)^r is purely periodic
    seq, start = props._period(*_state(*unit, p, p))
    assert start == 0
    assert props._residues(*unit, p, 12, p) == _reference_reduced(*unit, p, 12, p, 1)


def test_period_cache_does_not_grow_with_the_bounds():
    props._PERIODS.clear()
    run_all(100000, 14, 3)
    states = set(props._PERIODS)
    assert len(states) <= 2 * (5**2 + 7**2)
    assert max(len(seq) for seq, _ in props._PERIODS.values()) <= 170
    run_all(10000, 40, 300)
    assert set(props._PERIODS) <= states
    assert max(len(seq) for seq, _ in props._PERIODS.values()) <= 170


def test_editing_a_returned_sequence_leaves_the_memo_intact():
    t = t2_prime(13)
    first = props._residues(t, 0, 13, 10, 5)
    expected = list(first)
    first[2] = ((first[2][0] + 1) % 5, first[2][1])
    first.append((9, 9))
    assert props._residues(t, 0, 13, 10, 5) == expected


def _mul(u, v):
    """u * v in Z[sqrt(-3)] on AlgInt3 values: this file's own product."""
    return AlgInt3(u.a * v.a - 3 * u.b * v.b, u.a * v.b + u.b * v.a)


def _object_recursion(t_p, p, alpha_max, chi):
    # the recursion on AlgInt3 values by this file's own product, apart from hecke
    out = [AlgInt3(1, 0), t_p]
    for _ in range(alpha_max - 1):
        head, tail = _mul(t_p, out[-1]), _mul(AlgInt3(chi * p**12, 0), out[-2])
        out.append(AlgInt3(head.a - tail.a, head.b - tail.b))
    return out[: alpha_max + 1]


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**40, 10**40), st.integers(-10**40, 10**40),
       st.integers(-10**40, 10**40),
       st.sampled_from([p for p in primes_below(5000) if p > 2]),
       st.integers(0, 30))
def test_pair_recursion_matches_the_object_recursion(a, b, c, p, alpha):
    # the (a, b) lane is t1 in Z[sqrt(-3)], the c lane t2 in Z
    chi = 1 if p % 4 == 1 else -1
    got = list(islice(t_prime_powers(p, a, b, c), alpha + 1))
    assert [AlgInt3(x, y) for x, y, _ in got] == _object_recursion(AlgInt3(a, b), p, alpha, chi)
    assert [AlgInt3(z, 0) for _, _, z in got] == _object_recursion(AlgInt3(c, 0), p, alpha, chi)
    assert all(type(v) is int for entry in got for v in entry)


# the verifiers whose claims each fault breaks, and the only ones that fail
_FAILING = {
    "none": set(),
    "flip-y": {"t2-divisibility-5mod12"},
    "flip-w": {"t1-divisibility-7mod12"},
    "skew-t2": {"divisibility-1mod12", "periodicity-1mod12", "t1-t2-difference-nonvanishing"},
}


@pytest.mark.parametrize("fault", list(_FAILING))
@pytest.mark.parametrize("bounds", [(400, 4, 2), (3000, 30, 9), (10000, 14, 3)])
def test_one_pass_equals_the_separate_verifiers(flip, monkeypatch, fault, bounds):
    if fault == "flip-y":
        flip("_gauss_rep", _flip_y_at_5_mod_12)
    elif fault == "flip-w":
        flip("_eis_rep", _flip_w_at_7_mod_12)
    elif fault == "skew-t2":
        _skew_t2_at_1_mod_12(monkeypatch)
    prime_bound, exponent_bound, l_bound = bounds
    reports = run_all(*bounds)
    assert _failing(reports) == _FAILING[fault]
    # each verifier keeps its own bound and count
    assert [r.exponent_bound for r in reports] == [exponent_bound] * 3 + [l_bound, exponent_bound]
    classes = [{5}, {7}, {1}, {1}, {1, 5, 7}]
    assert [r.checked for r in reports] == [
        sum(1 for p in primes_below(prime_bound) if p % 12 in c) for c in classes]


def test_one_pass_reads_each_prime_value_once(monkeypatch):
    calls = []
    real = props._prime_values

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(props, "_prime_values", counted)
    run_all(3000, 6, 2)
    assert calls == [p for p in primes_below(3000) if p % 12 in (1, 5, 7)]


def test_one_pass_certifies_no_prime(monkeypatch):
    # the sweep's primes come from the sieve; no binding of is_prime is called
    # (quadrep has none: tests/test_series.py pins its imports)
    calls = []
    for module in (arith, hecke):
        real = module.is_prime

        def counted(n, _real=real):
            calls.append(n)
            return _real(n)

        monkeypatch.setattr(module, "is_prime", counted)
    hecke._SMALL_VALUES.clear()
    run_all(3000, 6, 2)
    # the public guards, which still certify, are tested in test_hecke.py
    assert calls == []


@pytest.mark.parametrize("bounds", [(10**12, 14, 3), (10_000, 10**6, 3), (10_000, 14, 10**6),
                                    (14, 10**5, 0)])
def test_work_budget_is_checked_before_any_prime_is_read(monkeypatch, bounds):
    def unreachable(bound):
        raise AssertionError("the prime source ran before the budget check")

    monkeypatch.setattr(props, "_primes", unreachable)
    with pytest.raises(BudgetError, match="budget"):
        run_all(*bounds)


def test_work_budget_admits_the_default_benchmark_and_1e7_sweeps(monkeypatch):
    monkeypatch.setattr(props, "_primes", lambda bound: iter(()))
    for bounds in ((props.DEFAULT_PRIME_BOUND, props.DEFAULT_EXPONENT_BOUND,
                    props.DEFAULT_L_BOUND), (100_000, 14, 3), (10**7, 14, 3), (3000, 30, 9)):
        assert [r.checked for r in run_all(*bounds)] == [0] * 5
