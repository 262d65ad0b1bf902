import math
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import primerange

import eta26.hecke as hecke_mod
from eta26 import (
    P26_DENOMINATOR,
    AlgInt3,
    CoeffBundle,
    RangeStream,
    coeff_bundle,
    eta_power_series,
    factor_progression,
    factorize,
    p26_cm,
    p26_oracle,
    t1_prime,
    t2_prime,
    t_prime_powers,
)
from eta26.arith import SIEVE_BOUND
from eta26.errors import ConsistencyError
from eta26.quadrep import _eis_rep, _gauss_rep


def _norm(z):
    return z.a * z.a + 3 * z.b * z.b


def _mul(u, v):
    """u * v in Z[sqrt(-3)] on AlgInt3 values: this file's own product, kept
    apart from hecke's integer code."""
    return AlgInt3(u.a * v.a - 3 * u.b * v.b, u.a * v.b + u.b * v.a)


_MINUS_ONE = AlgInt3(-1, 0)


def _gauss_pow12(x, y):
    re, im = 1, 0
    for _ in range(12):
        re, im = re * x - im * y, re * y + im * x
    return re, im


def _eis_pow12(z, w):
    a, b = 1, 0
    for _ in range(12):
        a, b = a * z - 3 * b * w, a * w + b * z
    return a, b


def _t2_direct(p):
    """t2(p) from the normalized representation by direct 12th powers."""
    rep = _gauss_rep(p)
    re, im = _gauss_pow12(rep.x, rep.y)
    if p % 12 == 5:
        # -i*pi^12 + i*conj(pi)^12 = 2 Im(pi^12)
        return 2 * im
    return 2 * re if rep.sign_plus else -2 * re


def _t1_direct(p):
    """t1(p) from the normalized representation by direct 12th powers."""
    rep = _eis_rep(p)
    a, b = _eis_pow12(rep.z, rep.w)
    if p % 12 == 7:
        return AlgInt3(0, -2 * b)
    return AlgInt3(2 * a if rep.sign_plus else -2 * a, 0)


def _powers(t_p, p, alpha_max):
    """[t(p^0), ..., t(p^alpha_max)] from t(p) = t_p: an AlgInt3 through the
    generator's t1 lane (t2(p) = 0), an int through its t2 lane (t1(p) = 0)."""
    if isinstance(t_p, AlgInt3):
        stream = t_prime_powers(p, t_p.a, t_p.b, 0)
        return [AlgInt3(a, b) for a, b, _ in islice(stream, alpha_max + 1)]
    return [c for _, _, c in islice(t_prime_powers(p, 0, 0, t_p), alpha_max + 1)]


def _closed_form(t, p, alpha, chi):
    """Binomial expansion of the two-term recursion."""
    acc = 0
    for j in range(alpha // 2 + 1):
        acc += (-chi) ** j * math.comb(alpha - j, j) * p ** (12 * j) * t ** (alpha - 2 * j)
    return acc


def test_pinned_reference_vectors():
    assert t2_prime(5) == 20592
    assert t1_prime(7) == AlgInt3(0, -102960)


def test_inert_primes_vanish():
    assert t2_prime(11) == 0
    assert t2_prime(7) == 0
    assert t1_prime(5) == AlgInt3(0, 0)
    assert t1_prime(11) == AlgInt3(0, 0)


def test_values_at_13_by_direct_expansion():
    # z + w = 3 mod 4 at 13, so both branches pick the minus sign;
    # the conjugate pair sums to twice the rational part
    a, _ = _eis_pow12(1, 2)
    assert t1_prime(13) == AlgInt3(-2 * a, 0)
    re, _ = _gauss_pow12(3, 2)
    assert t2_prime(13) == -2 * re
    assert t1_prime(13).a == 9397582
    assert t2_prime(13) == -6911282


def test_prime_values_match_direct_twelfth_powers():
    # the prime-value core against twelfth powers by repeated multiplication
    for p in primerange(600):
        if p < 5:
            continue
        if p % 4 == 1:
            assert t2_prime(p) == _t2_direct(p), p
        if p % 3 == 1:
            assert t1_prime(p) == _t1_direct(p), p


def test_prime_rejects_bad_input():
    with pytest.raises(ValueError):
        t2_prime(12)
    with pytest.raises(ValueError):
        t1_prime(3)


def test_prime_power_examples():
    assert _powers(0, 11, 2)[-1] == 11**12
    assert _powers(0, 5, 2)[-1] == -(5**12)
    assert _powers(0, 11, 0)[-1] == 1
    assert _powers(AlgInt3(0, 0), 7, 0)[-1] == AlgInt3(1, 0)


@given(
    st.sampled_from([5, 13, 17, 29, 37]),
    st.integers(min_value=-10**8, max_value=10**8),
    st.integers(min_value=0, max_value=12),
)
def test_recursion_matches_closed_form_split(p, t, alpha):
    # p = 1 mod 4: the recursion derives chi = +1 from p itself
    # through both lanes: t as t1(p) = t + 0*sqrt(-3), and as t2(p)
    expect = [_closed_form(t, p, a, 1) for a in range(alpha + 1)]
    assert _powers(AlgInt3(t, 0), p, alpha) == [AlgInt3(v, 0) for v in expect]
    assert _powers(t, p, alpha) == expect


@given(
    st.sampled_from([7, 11, 19, 23]),
    st.integers(min_value=-10**8, max_value=10**8),
    st.integers(min_value=0, max_value=12),
)
def test_recursion_matches_closed_form_inert(p, t, alpha):
    # p = 3 mod 4: the recursion derives chi = -1 from p itself
    # through both lanes: t as t1(p) = t + 0*sqrt(-3), and as t2(p)
    expect = [_closed_form(t, p, a, -1) for a in range(alpha + 1)]
    assert _powers(AlgInt3(t, 0), p, alpha) == [AlgInt3(v, 0) for v in expect]
    assert _powers(t, p, alpha) == expect


def test_parity_of_minus_branch():
    # negating t(p) negates exactly the odd-exponent values
    for p in (7, 19, 31):
        plus = t1_prime(p)
        for alpha in range(7):
            expect = _powers(plus, p, alpha)[-1]
            if alpha % 2 == 1:
                expect = _mul(_MINUS_ONE, expect)
            assert _powers(_mul(_MINUS_ONE, plus), p, alpha)[-1] == expect
    for p in (5, 17, 29):
        plus = t2_prime(p)
        for alpha in range(7):
            expect = _powers(plus, p, alpha)[-1]
            if alpha % 2 == 1:
                expect = -expect
            assert _powers(-plus, p, alpha)[-1] == expect


def test_ramanujan_bound():
    for p in primerange(3000):
        if p < 5:
            continue
        if p % 4 == 1:
            assert abs(t2_prime(p)) <= 2 * p**6, p
        if p % 3 == 1:
            t = t1_prime(p)
            assert _norm(t) <= 4 * p**12, p


def test_bundle_at_13():
    bundle = coeff_bundle(13)
    assert bundle.t1p.a - bundle.t2p == 16308864
    assert bundle.combination() == AlgInt3(P26_DENOMINATOR, 0)


def test_bundle_at_121():
    bundle = coeff_bundle(121)
    assert bundle.t1p == AlgInt3(11**12, 0)
    assert bundle.t2p == 11**12


def test_bundle_at_253():
    bundle = coeff_bundle(253)
    assert bundle.t1p == AlgInt3(0, 0)
    assert bundle.t2p == 0


def test_bundle_rejects_wrong_residue():
    with pytest.raises(ValueError):
        coeff_bundle(14)
    with pytest.raises(ValueError):
        coeff_bundle(1)


def test_bundle_multiplicative():
    pairs = [(13, 25), (25, 49), (13, 121), (49, 169)]
    for m1, m2 in pairs:
        assert math.gcd(m1, m2) == 1
        b1, b2, b12 = coeff_bundle(m1), coeff_bundle(m2), coeff_bundle(m1 * m2)
        assert b12.t1p == _mul(b1.t1p, b2.t1p)
        assert b12.t2p == b1.t2p * b2.t2p


def test_combination_divisible_everywhere():
    for n in range(0, 400, 7):
        bundle = coeff_bundle(12 * n + 13)
        comb = bundle.combination()
        assert comb.b == 0
        assert comb.a % P26_DENOMINATOR == 0


def test_p26_examples():
    assert p26_cm(0) == 1
    assert p26_cm(9) == 0 == p26_oracle(9)
    assert p26_cm(20) == 0 == p26_oracle(20)


def test_p26_rejects_negative():
    with pytest.raises(ValueError):
        p26_cm(-1)


def test_p26_takes_the_factorization_of_12n_plus_13_only():
    assert p26_cm(20, factorize(253)) == p26_cm(20) == 0
    with pytest.raises(ValueError, match="factorization of 265"):
        p26_cm(20, factorize(265))
    with pytest.raises(ValueError, match="factorization of 253"):
        p26_cm(21, factorize(253))


# (step, offset, shift) of the scan progression 12n + 13 and of each mt-check
# family's 12(mult*n + shift) + 13 = 12*mult*n + mult, with shift 1 and 3
_PROGRESSIONS = {None: (12, 13, 0), 25: (300, 25, 1), 49: (588, 49, 3)}


@pytest.mark.parametrize("family", list(_PROGRESSIONS))
@pytest.mark.parametrize("start", [0, 10**9, 10**12])
def test_p26_from_a_range_factorization_equals_the_bundle(family, start):
    # p26_cm reads the range sieve's factorization of each term; the bundle
    # factors the term afresh
    step, offset, shift = _PROGRESSIONS[family]
    end = start + 150
    for n, fac in zip(range(start, end + 1), factor_progression(step, offset, start, end)):
        k = n if family is None else family * n + shift
        assert fac.value == 12 * k + 13
        assert p26_cm(k, fac) == coeff_bundle(fac.value).p26, (family, n)


def test_oracle_equivalence_small_range():
    table = eta_power_series(26, 300)
    for n in range(301):
        assert p26_cm(n) == table[n], n


LIFT_LIMIT = 6000
# the primes l = 11 (mod 12) below 400, where t1(l) = t2(l) = 0 and
# t1(l^2) = t2(l^2) = l^12
LIFT_PRIMES = [p for p in primerange(400) if p % 12 == 11]


def _lifts(l, ks):
    """(k, n) with 12n + 13 = l^2 (12k + 13), for the k in ks with l prime to 12k + 13."""
    return [(k, (l * l * (12 * k + 13) - 13) // 12) for k in ks if (12 * k + 13) % l]


@pytest.fixture(scope="module")
def lift_table():
    return eta_power_series(26, LIFT_LIMIT)


def test_series_lifts_by_l_squared(lift_table):
    # p26((l^2 m - 13)/12) = l^12 p26(k) at m = 12k + 13, with both sides
    # read off the one series table and no hecke code
    pairs = [(l, k, n) for l in LIFT_PRIMES for k, n in _lifts(l, range(LIFT_LIMIT + 1))
             if n <= LIFT_LIMIT]
    assert len(pairs) == 60 and max(l for l, _, _ in pairs) == 71
    for l, k, n in pairs:
        assert lift_table[n] == l**12 * lift_table[k], (l, k)


def test_cm_at_lifted_indices_equals_the_series(lift_table):
    # the same relation reaches indices near 9e8 on the cm side
    assert len(LIFT_PRIMES) == 19
    pairs = [(l, k, n) for l in LIFT_PRIMES for k, n in _lifts(l, range(0, LIFT_LIMIT + 1, 16))]
    assert len(pairs) == 7045 and max(n for _, _, n in pairs) > 8 * 10**8
    for l, k, n in pairs:
        assert p26_cm(n) == l**12 * lift_table[k], (l, k)


def test_cm_at_indices_lifted_past_the_trial_division_bound(lift_table):
    # l = 100019 and 1000151, the first primes = 11 (mod 12) above 1e5 and
    # 1e6: factorize leaves l^2 as a perfect-square cofactor
    pairs = [(l, k, n) for l in (100019, 1000151)
             for k, n in _lifts(l, range(0, LIFT_LIMIT + 1, 64))]
    assert len(pairs) == 188 and max(n for _, _, n in pairs) > 5 * 10**15
    for l, k, n in pairs:
        assert p26_cm(n) == l**12 * lift_table[k], (l, k)


@pytest.mark.parametrize("l", [11, 23])
def test_cm_lifts_by_l_squared_at_a_product_of_two_primes_near_1e14(l):
    # 12k + 13 = 58740825590497 * 69173203083529: after trial division takes
    # out l, the curves split the same cofactor as at k
    k = 338607588155467189386635325
    n, rem = divmod(l * l * (12 * k + 13) - 13, 12)
    assert rem == 0
    assert p26_cm(n) == l**12 * p26_cm(k)


def test_sqrt3_component_vanishes_in_combination():
    # m = 5 * 7 * 11 * 13 has odd exponents in every residue class
    bundle = coeff_bundle(5 * 7 * 11 * 13)
    assert bundle.combination().b == 0


def _skew_prime_values(monkeypatch, da, db, dt2):
    """Add (da, db, dt2) to every prime value coeff_bundle reads, with a cold cache."""
    real = hecke_mod._prime_values

    def skewed(p):
        a, b, t2 = real(p)
        return a + da, b + db, t2 + dt2

    monkeypatch.setattr(hecke_mod, "_SMALL_VALUES", {})
    monkeypatch.setattr(hecke_mod, "_prime_values", skewed)


# each path that evaluates p26(0) from the prime values: a bundle at m = 13,
# p26_cm, and a range read, which builds no bundle
_EVALUATIONS = (lambda: hecke_mod.coeff_bundle(13), lambda: hecke_mod.p26_cm(0),
                lambda: list(RangeStream(0, 10)))


def test_corrupted_prime_value_raises_consistency_error(monkeypatch):
    # a wrong prime value must be caught by the divisibility check, not
    # silently rounded away
    _skew_prime_values(monkeypatch, 0, 0, 1)
    for evaluate in _EVALUATIONS:
        with pytest.raises(ConsistencyError):
            evaluate()


@pytest.mark.parametrize("da, db, message", [(1, 0, "not divisible"), (0, 1, "not rational")])
def test_corrupted_t1_prime_value_raises_consistency_error(monkeypatch, da, db, message):
    # the t1 twin of the test above: a rational skew breaks divisibility,
    # an irrational one breaks the rationality of t1p
    _skew_prime_values(monkeypatch, da, db, 0)
    for evaluate in _EVALUATIONS:
        with pytest.raises(ConsistencyError, match=message):
            evaluate()


# The degree-12 binomial forms of (u + v*sqrt(-d))^12, written out term by term.
# Even part of (x+iy)^12 + conj: 2 * sum _GAUSS_EVEN[k] x^(12-2k) y^(2k)
_GAUSS_EVEN = (1, -66, 495, -924, 495, -66, 1)
# Odd form -i(x+iy)^12 + i(x-iy)^12 = 2 * sum _GAUSS_ODD[k] x^(11-2k) y^(2k+1)
_GAUSS_ODD = (12, -220, 792, -792, 220, -12)
# (z+w*sqrt(-3))^12 + conj = sum _EIS_EVEN[k] z^(12-2k) w^(2k)
_EIS_EVEN = (2, -396, 8910, -49896, 80190, -32076, 1458)
# -(z+w*sqrt(-3))^12 + conj = sqrt(-3) * sum _EIS_ODD[k] z^(11-2k) w^(2k+1)
_EIS_ODD = (-24, 1320, -14256, 42768, -35640, 5832)


def _form(coeffs, u, v, odd):
    """sum coeffs[k] * u^(deg-2k) * v^(2k+1 if odd else 2k), deg = 11 or 12."""
    top = len(coeffs) - 1
    acc = 0
    for k, c in enumerate(coeffs):
        acc += c * u ** (2 * (top - k) + (1 if odd else 0)) * v ** (2 * k)
    return acc * v if odd else acc


@given(st.integers(-10**7 + 1, 10**7 - 1), st.integers(-10**7 + 1, 10**7 - 1))
def test_pow12_matches_the_binomial_forms(u, v):
    re, im = hecke_mod._pow12(u, v, 1)
    assert re == _form(_GAUSS_EVEN, u, v, odd=False)
    assert im == _form(_GAUSS_ODD, u, v, odd=True)
    re, im = hecke_mod._pow12(u, v, 3)
    assert 2 * re == _form(_EIS_EVEN, u, v, odd=False)
    assert -2 * im == _form(_EIS_ODD, u, v, odd=True)


@pytest.mark.parametrize("dt1b, dt2, message", [(0, 1, "not divisible"), (1, 0, "not rational")])
def test_skewed_bundle_raises_consistency_error(dt1b, dt2, message):
    # the bundle checks its own combination, whoever built it
    good = coeff_bundle(13)
    t1p = AlgInt3(good.t1p.a, good.t1p.b + dt1b)
    with pytest.raises(ConsistencyError, match=message):
        CoeffBundle(13, t1p, good.t2p + dt2)


def _product_bundle(m):
    """coeff_bundle as an AlgInt3 product of t(p^alpha) over t1_prime / t2_prime.

    The paper's four-term combination t1p + t1m - t2p - t2m is the reference:
    t1m (t2m) is t1p (t2p) negated when an odd number of primes = 7 (5)
    mod 12 divide m to an odd power, and at m = 1 mod 12 it equals t1p (t2p).
    """
    fac = factorize(m)
    t1p, t2p, odd_7, odd_5 = AlgInt3(1, 0), 1, 0, 0
    for p, alpha in fac:
        t1p = _mul(t1p, _powers(t1_prime(p), p, alpha)[-1])
        t2p = t2p * _powers(t2_prime(p), p, alpha)[-1]
        if alpha % 2 == 1:
            odd_7 += p % 12 == 7
            odd_5 += p % 12 == 5
    t1m = t1p if odd_7 % 2 == 0 else _mul(_MINUS_ONE, t1p)
    t2m = t2p if odd_5 % 2 == 0 else -t2p
    assert (t1m, t2m) == (t1p, t2p), m
    p26, rem = divmod(t1p.a + t1m.a - t2p - t2m, P26_DENOMINATOR)
    assert t1p.b + t1m.b == 0 and rem == 0, m
    bundle = CoeffBundle(m, t1p, t2p)
    assert bundle.p26 == p26, m
    return bundle


def test_bundle_equals_the_product_below_3000():
    for n in range(3001):
        m = 12 * n + 13
        assert coeff_bundle(m) == _product_bundle(m), n


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**7))
def test_bundle_equals_the_product(n):
    m = 12 * n + 13
    assert coeff_bundle(m) == _product_bundle(m)


@pytest.mark.parametrize("m", [
    5**2, 7**2, 11**2, 13**4, 5**2 * 7**2 * 13,
    5**3 * 17, 7**3 * 19, 11**3 * 23, 13**2 * 37**3 * 61,
    100003**2, 5**2 * 100019**2,
])
def test_bundle_equals_the_product_at_higher_exponents(m):
    assert m % 12 == 1
    assert any(alpha >= 2 for _, alpha in factorize(m))
    assert coeff_bundle(m) == _product_bundle(m)


_SHAPE_PRIMES = {c: [p for p in primerange(2000) if p % 12 == c] for c in (1, 5, 7, 11)}


@st.composite
def _m_from_shapes(draw):
    """m = 1 mod 12 from primes below 2000 of each class mod 12, exponents 0 to 4."""
    m = 1
    for primes in _SHAPE_PRIMES.values():
        for p in draw(st.lists(st.sampled_from(primes), max_size=3, unique=True)):
            m *= p ** draw(st.integers(0, 4))
    r = m % 12
    if r != 1:
        # one more prime of m's own class, prime to m, brings m to 1 mod 12
        m *= draw(st.sampled_from([p for p in _SHAPE_PRIMES[r] if m % p]))
    return m


@settings(max_examples=200, deadline=None)
@given(_m_from_shapes().filter(lambda m: m > 1))
@example(5 * 7 * 11 * 13)
@example(5**3 * 7**3 * 11**3 * 13**2 * 17**2 * 1997**4)
def test_minus_twists_equal_plus_at_odd_shapes(m):
    # the counts of primes = 5, 7, 11 (mod 12) with odd exponent share one
    # parity, so a minus twist flips a sign only where t1p = t2p = 0
    fac = factorize(m)
    parities = {sum(alpha % 2 for p, alpha in fac if p % 12 == c) % 2 for c in (5, 7, 11)}
    assert m % 12 == 1 and len(parities) == 1
    assert coeff_bundle(m) == _product_bundle(m)


def test_prime_value_cache_holds_only_small_primes(monkeypatch):
    monkeypatch.setattr(hecke_mod, "_SMALL_VALUES", {})
    reports = list(RangeStream(0, 30000))
    assert len(reports) == 30001
    cached = hecke_mod._SMALL_VALUES
    assert cached and max(cached) < SIEVE_BOUND
    assert len(cached) <= len(list(primerange(SIEVE_BOUND)))
    p = 100003  # 7 (mod 12), above the bound; recomputed on each call
    assert t1_prime(p) == t1_prime(p) == _t1_direct(p)
    assert t2_prime(p) == t2_prime(p) == 0
    q = 100129  # 1 (mod 12)
    assert t1_prime(q) == t1_prime(q) == _t1_direct(q)
    assert t2_prime(q) == t2_prime(q) == _t2_direct(q)
    assert p not in cached and q not in cached


def test_public_guards_reject_non_primes():
    for call, arg in ((t1_prime, 15), (t2_prime, 12)):
        with pytest.raises(ValueError):
            call(arg)
