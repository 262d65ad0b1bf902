import math
import random
import tracemalloc
from bisect import bisect_left

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import eta26.arith as arith
from eta26 import FactoringBudgetError, Factorization, factorize, is_prime
from eta26.arith import SIEVE_BOUND


def _primes_below(bound):
    return list(arith._primes(bound))


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(253).factors == ((11, 1), (23, 1))
    assert factorize(121).factors == ((11, 2),)


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=2, max_value=10**9))
def test_factorize_roundtrip(m):
    fac = factorize(m)
    prod = 1
    for p, e in fac:
        assert is_prime(p)
        prod *= p**e
    assert prod == m


@given(st.integers(min_value=2, max_value=10**7))
@settings(max_examples=50)
def test_factorize_matches_sympy(m):
    assert dict(factorize(m).factors) == sympy.factorint(m)


# sieve primes, the largest two among them, to be raised to high powers
_SMOOTH_PRIMES = (2, 3, 5, 7, 13, 97, 9973, 99989, 99991)
_PRIME_ABOVE_THE_SIEVE = st.integers(SIEVE_BOUND, 10**8).map(sympy.nextprime)


@given(st.lists(st.tuples(st.sampled_from(_SMOOTH_PRIMES), st.integers(1, 20)), max_size=3),
       st.lists(_PRIME_ABOVE_THE_SIEVE, max_size=2))
@example([(99991, 2)], [])  # the largest sieve prime squared, just below 1e10
@example([(2, 10), (5, 10)], [])  # 1e10 itself
@example([], [100_003, 100_003])  # the least prime past the sieve squared
@example([(99991, 3)], [1_000_003])
@example([(2, 40)], [1_000_003])
@example([], [10_000_000_019])
@example([], [100_003, 100_019])  # no factor below 1e5: Pollard on m itself
@settings(max_examples=200, deadline=None)
def test_factorize_matches_sympy_on_sieve_smooth_times_rough(smooth, rough):
    # m = (a 1e5-smooth part) * (1, a prime above 1e5, or two of them):
    # trial division takes out the smooth primes below 1000, and Pollard
    # splits 9973, 99989 and 99991 off with the rough part
    m = math.prod(p**e for p, e in smooth) * math.prod(rough)
    assert dict(factorize(m).factors) == sympy.factorint(m)


_PRIME_PAST_THE_TRIAL_PRIMES = st.sampled_from(list(sympy.primerange(1001, 10**5)))
_ONE_OR_A_PRIME_TO_1E12 = st.one_of(st.just(1), st.integers(3, 10**12).map(sympy.prevprime))


@given(st.lists(_PRIME_PAST_THE_TRIAL_PRIMES, min_size=1, max_size=3), _ONE_OR_A_PRIME_TO_1E12)
@example([], 9_999_999_967)  # a prime just below 1e10
@example([62617], 153313)  # scan 800000000 800000060, n = 800000009
@example([99991], sympy.nextprime(10**11))
@example([1009, 1013], sympy.nextprime(10**11))
@example([3001, 4001, 5003, 7001], sympy.nextprime(10**9))
@example([99991] * 3, 1_000_003)
@settings(max_examples=100, deadline=None)
def test_factorize_matches_sympy_past_the_trial_primes(small, large):
    # no prime of m is below 1000, so trial division leaves all of m to
    # Miller-Rabin and Pollard-Brent
    m = math.prod(small) * large
    assert dict(factorize(m).factors) == sympy.factorint(m)


def test_is_prime_examples():
    assert is_prime(13)
    assert not is_prime(121)
    assert is_prime(2**61 - 1)
    assert sympy.isprime(2**61 - 1)


def test_is_prime_agrees_with_sieve():
    sieve = set(arith._primes(2000))
    for m in range(2000):
        assert is_prime(m) == (m in sieve)


def _trial_division_is_prime(m):
    return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))


def test_is_prime_table_matches_trial_division():
    # below 2047 the bases' divisibility and Miller-Rabin base 2 are exact;
    # this checks them, and the bases that follow, to just past SIEVE_BOUND
    for m in range(SIEVE_BOUND + 100):
        assert is_prime(m) == _trial_division_is_prime(m), m


@given(st.integers(min_value=2, max_value=10**12))
@settings(max_examples=50)
def test_is_prime_agrees_with_sympy(m):
    assert is_prime(m) == sympy.isprime(m)


@given(st.integers(min_value=0, max_value=10**9))
def test_prime_factors_of_12n_plus_13(n):
    # 12n + 13 is odd and coprime to 3, so every factor is 1, 5, 7 or
    # 11 mod 12
    for p, _ in factorize(12 * n + 13):
        assert p % 12 in (1, 5, 7, 11)


def test_factoring_budget_is_enforced():
    # semiprime whose factors exceed the trial-division bound
    n = 1_000_000_007 * 1_000_000_009
    with pytest.raises(FactoringBudgetError):
        factorize(n, budget=1)
    assert factorize(n).factors == ((1_000_000_007, 1), (1_000_000_009, 1))


# Both primes are 1 mod 12, so N is a 12n + 13 of the large-index band.
_ECM_N = 100_000_801 * 100_000_081
_ECM_PRIMES = (100_000_081, 100_000_801)


def _without_stage_2(monkeypatch):
    k = arith._ecm_plan(150)[0]
    monkeypatch.setattr(arith, "_ecm_plan", lambda b1: (k, (), 0))


def test_ecm_stage_1_alone(monkeypatch):
    # sigma = 7 finds 100000081 with the B1 = 150 ladder alone
    assert arith._ecm_curve(_ECM_N, 7, 150, [10**6]) == 100_000_081
    _without_stage_2(monkeypatch)
    assert arith._ecm_curve(_ECM_N, 7, 150, [10**6]) == 100_000_081


def test_ecm_stage_2(monkeypatch):
    # sigma = 11 needs stage 2: Q = k * P has order 2657 mod 100000801
    assert arith._ecm_curve(_ECM_N, 11, 150, [10**6]) == 100_000_801
    _without_stage_2(monkeypatch)
    assert arith._ecm_curve(_ECM_N, 11, 150, [10**6]) == 1


def test_ecm_never_returns_n(monkeypatch):
    # sigma = 28 finds both primes at once; without _ecm's g < n guard,
    # factorize would loop on (n, 1)
    assert arith._ecm_curve(_ECM_N, 28, 150, [10**6]) == _ECM_N
    real = arith._ecm_curve
    sigmas = []

    def n_first(n, sigma, b1, budget):
        sigmas.append(sigma)
        return n if len(sigmas) == 1 else real(n, sigma, b1, budget)

    monkeypatch.setattr(arith, "_ecm_curve", n_first)
    assert arith._ecm(_ECM_N, [10**6]) in _ECM_PRIMES
    assert len(sigmas) >= 2
    sigmas.clear()
    walks = _record_calls(monkeypatch, "_pollard_brent")
    assert factorize(_ECM_N).factors == tuple((p, 1) for p in _ECM_PRIMES)
    assert walks == [_ECM_N]
    assert len(sigmas) >= 2


def test_ecm_curve_returns_1_when_it_finds_neither_prime():
    assert arith._ecm_curve(_ECM_N, 8, 150, [10**6]) == 1


def _reference_ecm_plan(b1):
    """(k, steps, cost) by lcm and a double loop over (m, j) with sympy.isprime."""
    d = arith._ECM_D
    b2 = min(100 * b1, SIEVE_BOUND - 1)
    steps = tuple(
        tuple(j for j in range(1, d // 2, 2)
              if any(b1 < q <= b2 and sympy.isprime(q) for q in (m * d - j, m * d + j)))
        for m in range(1, (b2 + d // 2) // d + 1))
    cost = 6 * (d // 4 + 2 + len(steps)) + 3 * sum(map(len, steps))
    return math.lcm(*range(1, b1 + 1)), steps, cost


@pytest.mark.parametrize("k", range(8))
def test_ecm_plan_matches_a_double_loop_reference(k):
    b1 = arith._ECM_B1 << k
    assert arith._ecm_plan(b1) == _reference_ecm_plan(b1)


def test_the_budget_test_semiprime_reaches_ecm(monkeypatch):
    # so that the default-budget half of test_factoring_budget_is_enforced
    # runs the curves as well as the Brent head
    calls = _record_calls(monkeypatch, "_ecm")
    n = 1_000_000_007 * 1_000_000_009
    assert factorize(n).factors == ((1_000_000_007, 1), (1_000_000_009, 1))
    assert calls == [n]


def test_ecm_is_charged_to_the_budget(monkeypatch):
    # the head spends 2047 units; one more leaves too little for a curve
    calls = _record_calls(monkeypatch, "_ecm")
    with pytest.raises(FactoringBudgetError):
        factorize(_ECM_N, budget=arith._ECM_ROUND - 1)
    assert calls == []
    with pytest.raises(FactoringBudgetError):
        factorize(_ECM_N, budget=arith._ECM_ROUND)
    assert calls == [_ECM_N]
    assert factorize(_ECM_N).factors == tuple((p, 1) for p in _ECM_PRIMES)


def test_brent_splits_a_small_rough_prime_before_p_minus_1(monkeypatch):
    # 100003 - 1 = 2 3 7 2381 and 100019 - 1 = 2 43 1163 are smooth, so a
    # p - 1 pass would split these as the curves would; Brent finds both
    # primes first, before the walk reaches _ECM_ROUND
    calls = _record_calls(monkeypatch, "_ecm")
    for m in [100_003 * 100_019, 100_003 * 1_000_000_007, 100_019 * 1_000_000_009]:
        assert factorize(m).factors == tuple((p, 1) for p in sorted(sympy.factorint(m)))
    assert calls == []


_PRIME_NEAR_1E9 = st.integers(10**8 + 8, 10**9).map(sympy.prevprime)


@given(_PRIME_NEAR_1E9, _PRIME_NEAR_1E9)
@example(100_000_801, 100_000_081)
@example(100_000_213, 100_000_081)
@example(100_000_801, 100_000_837)
@example(100_000_081, 100_000_237)
@settings(max_examples=30, deadline=None)
def test_factorize_matches_sympy_on_semiprimes(p, q):
    assert dict(factorize(p * q).factors) == sympy.factorint(p * q)


# the primes in [1e10, 1e14]: 99999999999973 is the largest below 1e14
_PRIME_PAST_1E10 = st.integers(10**10, 99_999_999_999_972).map(sympy.nextprime)


@given(_PRIME_PAST_1E10, _PRIME_PAST_1E10)
@example(58_740_825_590_497, 69_173_203_083_529)  # coeff 338607588155467189386635325
@example(10_086_892_921_403, 14_818_080_190_799)
@settings(max_examples=5, deadline=None)
def test_factorize_splits_a_product_of_two_primes_past_1e10(p, q):
    # the curves split these; a Brent walk would take about sqrt(p), up to 1e7, steps
    assume(p != q)
    p, q = sorted((p, q))
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_factorize_with_a_least_prime_below_1e5_never_runs_ecm(monkeypatch):
    # Brent splits off a prime below 1e5 in well under the _ECM_ROUND - 1
    # steps that come before the first curve, and a prime m is never walked
    calls = _record_calls(monkeypatch, "_ecm")
    # the six composite 12n + 13 of scan 800000000 800000060 with no prime below 1000
    rough = [62617 * 153313, 30391 * 315883, 2003 * 4792811, 2393 * 4011701,
             59207 * 162143, 25747 * 372859]
    for m in [99991 * 99989, 9_999_999_967, *rough, *(12 * n + 13 for n in range(2001))]:
        assert math.prod(p**e for p, e in factorize(m)) == m
    assert calls == []


def test_factorization_validates_itself():
    Factorization(12, ((2, 2), (3, 1)))
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))  # wrong product
    with pytest.raises(ValueError):
        Factorization(16, ((4, 2),))  # not prime
    with pytest.raises(ValueError):
        Factorization(36, ((3, 2), (2, 2)))  # not increasing
    with pytest.raises(ValueError):
        Factorization(2, ((2, 0),))  # exponent < 1


def test_factorization_helpers():
    # iterating a Factorization yields its (prime, exponent) pairs
    assert tuple(factorize(121)) == ((11, 2),)
    assert tuple(factorize(253)) == ((11, 1), (23, 1))
    assert tuple(factorize(1)) == ()


# (step, offset) of the progressions that scan and mt-check sieve: 12n + 13,
# and 12(mult * n + offset) + 13 = mult * (12n + 1) for mult = 25 and 49
_PROGRESSIONS = {"scan": (12, 13), 25: (300, 25), 49: (588, 49)}


def _factorized(step, offset, start, end):
    return [factorize(step * n + offset) for n in range(start, end + 1)]


@pytest.mark.parametrize("step, offset, start, length", [
    (12, 13, 0, 3000),
    (12, 13, 10**9, 600),  # sqrt(top) past SIEVE_BOUND: the primes are capped
    (12, 13, 10**12, 300),  # cofactors past SIEVE_BOUND ** 2 go to factorize
    (300, 25, 0, 1000),  # 5 divides every term
    (588, 49, 10**8, 300),  # 7 divides every term, past the cap
    (588, 49, 0, 0),
])
def test_factor_progression_equals_factorize(step, offset, start, length):
    end = start + length
    assert list(arith.factor_progression(step, offset, start, end)) == _factorized(
        step, offset, start, end)


@given(st.integers(0, 10**9), st.integers(0, 300), st.sampled_from(list(_PROGRESSIONS)))
@settings(max_examples=30, deadline=None)
def test_factor_progression_matches_factorize(start, length, family):
    step, offset = _PROGRESSIONS[family]
    end = start + length
    assert list(arith.factor_progression(step, offset, start, end)) == _factorized(
        step, offset, start, end)


def test_factor_progression_takes_each_start_offset_once(monkeypatch):
    # the first index is trial-divided with no inverse mod any prime; then
    # each sieving prime that does not divide 12 takes one, for the window
    inverses = []

    def counted(base, exp, mod):
        if exp == -1:
            inverses.append(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(arith, "pow", counted, raising=False)
    facs = arith.factor_progression(12, 13, 10**6, 10**6 + 3000)
    next(facs)
    assert inverses == []
    rest = list(facs)
    assert len(rest) == 3000
    assert inverses == _primes_below(math.isqrt(12 * (10**6 + 3000) + 13) + 1)[2:]


def test_factor_progression_factorizes_only_the_first_index(monkeypatch):
    # past the cap, a cofactor with no prime below SIEVE_BOUND goes straight
    # to the cofactor loop and is not trial-divided a second time
    calls = []
    real = arith.factorize

    def counted(m, *rest):
        calls.append(m)
        return real(m, *rest)

    monkeypatch.setattr(arith, "factorize", counted)
    facs = list(arith.factor_progression(12, 13, 10**12, 10**12 + 200))
    assert len(facs) == 201
    assert calls == [12 * 10**12 + 13]


def test_factor_progression_rejects_bad_windows():
    for args in ((0, 13, 0, 5), (12, 0, 0, 5), (12, 13, -1, 5), (12, 13, 6, 5)):
        with pytest.raises(ValueError):
            next(arith.factor_progression(*args))


def test_primes_below():
    assert _primes_below(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert _primes_below(2) == []
    big = _primes_below(200_000)  # more than one segment
    assert len(big) == sympy.primepi(199_999)
    assert big[-1] == sympy.prevprime(200_000)


def test_primes_below_boundaries():
    assert _primes_below(-5) == _primes_below(0) == _primes_below(2) == []
    assert _primes_below(3) == [2]
    assert _primes_below(19) == [2, 3, 5, 7, 11, 13, 17]
    assert len(_primes_below(100_000)) == sympy.primepi(99_999)


def test_primes_past_the_sieve_bound_come_one_segment_at_a_time():
    # bounds at and next to the segment edges, counted from 0, give sympy's
    # primes, and a sweep to 3e5 holds one segment (64 KiB), where a list of
    # its primes would take about 0.9 MiB
    segment = arith._PRIME_SEGMENT
    top = 3 * segment + 2
    whole = list(sympy.primerange(top))
    for bound in (segment - 1, segment, segment + 1, 2 * segment, 2 * segment + 1, top):
        assert _primes_below(bound) == whole[: bisect_left(whole, bound)], bound
    tracemalloc.start()
    try:
        count = sum(1 for _ in arith._primes(300_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == sympy.primepi(299_999)
    assert peak < 2**18


def test_is_prime_rejects_negative():
    with pytest.raises(ValueError):
        is_prime(-7)
    assert not is_prime(0)
    assert not is_prime(1)


# OEIS A014233, typed independently of arith._PSI: psi_k is the least odd
# composite that is a strong pseudoprime to each of the first k prime bases.
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051,
           318665857834031151167461, 3317044064679887385961981)


def _reference_is_prime(m):
    """Miller-Rabin on all 13 bases with no early exit, then the seeded rounds."""
    if m < 2:
        return False
    for p in arith._MR_BASES:
        if m % p == 0:
            return m == p
    if not all(arith._miller_rabin(m, base) for base in arith._MR_BASES):
        return False
    if m < A014233[-1]:
        return True
    rng = random.Random(m)
    return all(arith._miller_rabin(m, rng.randrange(2, m - 1)) for _ in range(64))


def test_psi_table_is_a014233():
    assert arith._PSI == A014233
    assert len(arith._PSI) == len(arith._MR_BASES)


@pytest.mark.parametrize("k", range(1, 14))
def test_psi_k_is_composite_and_fools_the_first_k_bases(k):
    # so stopping after k bases is exact below psi_k and wrong at it
    psi = A014233[k - 1]
    assert not sympy.isprime(psi)
    assert not is_prime(psi)
    assert all(arith._miller_rabin(psi, base) for base in arith._MR_BASES[:k])


def test_is_prime_agrees_with_sieve_to_2e6():
    flags = bytearray(2_000_000)
    for p in arith._primes(2_000_000):
        flags[p] = 1
    for m in range(SIEVE_BOUND, 2_000_000):
        assert is_prime(m) == flags[m], m


@given(st.integers(min_value=0, max_value=10**25))
@settings(max_examples=300)
def test_is_prime_matches_all_base_reference(m):
    assert is_prime(m) == _reference_is_prime(m)


def test_is_prime_matches_all_base_reference_near_each_psi():
    for psi in sorted(set(A014233)):
        for m in range(psi - 200, psi + 201):
            assert is_prime(m) == _reference_is_prime(m), m


def _count_miller_rabin(monkeypatch) -> list[int]:
    bases = []
    real = arith._miller_rabin

    def counted(n, base):
        bases.append(base)
        return real(n, base)

    monkeypatch.setattr(arith, "_miller_rabin", counted)
    return bases


def test_prime_below_psi_2_costs_two_bases(monkeypatch):
    bases = _count_miller_rabin(monkeypatch)
    assert is_prime(1_000_003)
    assert bases == [2, 3]


@pytest.mark.parametrize("p", [10_000_000_019, 999_999_999_989])
def test_prime_in_large_index_band_costs_at_most_five_bases(monkeypatch, p):
    bases = _count_miller_rabin(monkeypatch)
    assert is_prime(p)
    assert 1 <= len(bases) <= 5


def test_psi_13_runs_every_base_then_the_seeded_rounds(monkeypatch):
    bases = _count_miller_rabin(monkeypatch)
    assert not is_prime(A014233[-1])
    assert tuple(bases[:13]) == arith._MR_BASES
    assert len(bases) > 13


def test_hand_built_factorization_still_certifies_its_primes():
    with pytest.raises(ValueError, match="15 is not prime"):
        Factorization(15, ((15, 1),))


def _record_calls(monkeypatch, name: str) -> list[int]:
    """The first argument of every call factorize makes to arith.<name>."""
    calls = []
    real = getattr(arith, name)

    def counted(n, *rest):
        calls.append(n)
        return real(n, *rest)

    monkeypatch.setattr(arith, name, counted)
    return calls


@pytest.mark.parametrize("m, tested", [
    (96, []),  # 2^5 * 3: trial division leaves 3, below 997^2 and so a prime
    (2**40, []),  # trial division leaves no cofactor at all
    (1_000_003, [1_000_003]),
    (8 * 1_000_003 * 1_000_033, [1_000_003 * 1_000_033, 1_000_003, 1_000_033]),
    # the square root is one cofactor of multiplicity 2, tested once
    (1_000_003**2 * 7, [1_000_003**2, 1_000_003]),
    (10_000_000_019, [10_000_000_019]),  # a prime is tested once, and nothing else
    # Pollard takes out 99991 one at a time, and 99991 is tested once
    (99991**3 * 1_000_003,
     [99991**3 * 1_000_003, 99991**2 * 1_000_003, 99991 * 1_000_003, 1_000_003, 99991]),
    (999_999_999_989, [999_999_999_989]),
    # no trial prime divides m, so Pollard splits m, which is not retested
    (100_003 * 100_019, [100_003 * 100_019, 100_003, 100_019]),
    # 11^2 is divided out, since trial division stops only once p^2 > m
    (7 * 11**2, []),
])
def test_factorize_tests_only_the_cofactors_it_meets(monkeypatch, m, tested):
    calls = _record_calls(monkeypatch, "is_prime")
    fac = factorize(m)
    assert sorted(calls) == sorted(tested)
    # a cofactor taken as prime with no test must be one
    assert dict(fac.factors) == sympy.factorint(m)


@pytest.mark.parametrize("m", [
    100_003**3,
    100_003**2 * 100_019,
    100_003**2 * 100_019**2 * 3,
    (1_000_003 * 1_000_033)**2 * 100_019,
])
def test_factorize_tests_no_number_twice(monkeypatch, m):
    # a prime met twice, through Pollard or the square root, is tested once
    calls = _record_calls(monkeypatch, "is_prime")
    assert dict(factorize(m).factors) == sympy.factorint(m)
    assert len(calls) == len(set(calls))


class _CountedPrimes(list):
    """_TRIAL_PRIMES, counting the primes a loop over it goes past.

    The count rises when the loop asks for the next prime (or ends), so a
    prime at which trial division breaks off, untried, is not counted.
    """

    passed = 0

    def __iter__(self):
        for p in super().__iter__():
            yield p
            self.passed += 1


@pytest.mark.parametrize("m", [9_999_999_967, 10_000_000_019, 999_999_999_989])
def test_factorize_trial_divides_by_the_168_primes_below_1000(monkeypatch, m):
    # the same 168 divisions on both sides of 1e10
    primes = _CountedPrimes(arith._TRIAL_PRIMES)
    monkeypatch.setattr(arith, "_TRIAL_PRIMES", primes)
    assert factorize(m).factors == ((m, 1),)
    assert primes.passed == len(primes) == 168
    assert primes[-1] == 997
