import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eta26 import ConsistencyError, is_prime, p26_cm, primes_below, quadrep
from eta26.quadrep import EisRep, GaussRep, _eis_rep, _gauss_rep


def _enumerate_two_squares(p):
    """Reference oracle: x odd, y even by enumeration of y up to sqrt(p)."""
    for y in range(0, math.isqrt(p) + 1, 2):
        x2 = p - y * y
        x = math.isqrt(x2)
        if x * x == x2:
            return x, y
    raise ValueError(f"no two-square representation found for {p}")


def _enumerate_one_three_squares(p):
    """Reference oracle: z, w >= 0 by enumeration of w up to sqrt(p/3)."""
    for w in range(0, math.isqrt(p // 3) + 1):
        z2 = p - 3 * w * w
        z = math.isqrt(z2)
        if z * z == z2:
            return z, w
    raise ValueError(f"no z^2 + 3w^2 representation found for {p}")


def _enumerate(d, p):
    return _enumerate_two_squares(p) if d == 1 else _enumerate_one_three_squares(p)


def _reps(p):
    return (_gauss_rep(p) if p % 4 == 1 else None,
            _eis_rep(p) if p % 3 == 1 else None)


def _assert_reps_match_enumeration(primes):
    """The normalized reps equal those built on the enumeration."""
    fast = [_reps(p) for p in primes]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(quadrep, "_cornacchia", _enumerate)
        slow = [_reps(p) for p in primes]
    assert fast == slow


def _gauss_pow12(x, y):
    """(x + iy)^12 by repeated complex-integer multiplication."""
    re, im = 1, 0
    for _ in range(12):
        re, im = re * x - im * y, re * y + im * x
    return re, im


def _eis_pow12(z, w):
    """(z + w*sqrt(-3))^12 by repeated multiplication."""
    a, b = 1, 0
    for _ in range(12):
        a, b = a * z - 3 * b * w, a * w + b * z
    return a, b


def test_two_squares_examples():
    assert _gauss_rep(5) == GaussRep(5, 1, 2, True)
    assert _gauss_rep(13) == GaussRep(13, 3, -2, False)
    assert _gauss_rep(29) == GaussRep(29, -5, 2, True)
    assert _gauss_rep(257) == GaussRep(257, 1, -16, True)


def test_one_three_squares_examples():
    assert _eis_rep(7) == EisRep(7, -2, -1, True)
    assert _eis_rep(13) == EisRep(13, 1, 2, False)
    assert _eis_rep(37) == EisRep(37, -5, 2, True)


def _all_gauss_solutions(p):
    import math

    sols = set()
    for y in range(math.isqrt(p) + 1):
        x2 = p - y * y
        x = math.isqrt(x2)
        if x * x == x2:
            for sx in (x, -x):
                for sy in (y, -y):
                    sols.add((sx, sy))
                    sols.add((sy, sx))
    return {(x, y) for x, y in sols if x * x + y * y == p}


def test_gauss_normalization_unique():
    # among all integer solutions, exactly one satisfies the published
    # congruence constraints
    for p in primes_below(1500):
        if p % 4 != 1:
            continue
        rep = _gauss_rep(p)
        sols = _all_gauss_solutions(p)
        assert (rep.x, rep.y) in sols
        if p % 12 == 5:
            matches = [
                (x, y)
                for x, y in sols
                if x % 2 == 1 and y % 2 == 0 and x % 3 == 1 and y % 3 == 2
            ]
        else:
            matches = [
                (x, y)
                for x, y in sols
                if x % 2 == 1 and y % 2 == 0
                and ((y % 3 == 0 and x % 3 == 1 and y >= 0)
                     or (x % 3 == 0 and y % 3 == 1 and x >= 0))
            ]
        assert matches == [(rep.x, rep.y)], p


def test_eis_invariants_sweep():
    for p in primes_below(1500):
        if p % 3 != 1 or p < 5:
            continue
        rep = _eis_rep(p)
        assert rep.z**2 + 3 * rep.w**2 == p
        assert rep.z % 3 == 1
        if p % 12 == 7:
            assert rep.z % 2 == 0 and rep.w % 2 == 1
            assert (rep.z + rep.w) % 4 == 1
        else:
            assert rep.z % 2 == 1 and rep.w % 2 == 0 and rep.w >= 0
            assert rep.sign_plus == ((rep.z + rep.w) % 4 == 1)


def test_sign_correlation_at_1_mod_12():
    # the two sign branches always agree; hecke relies on this
    for p in primes_below(10_000):
        if p % 12 == 1:
            assert _gauss_rep(p).sign_plus == _eis_rep(p).sign_plus, p


def test_degree12_forms_ignore_joint_sign_flips():
    for p in (5, 13, 17, 29, 37, 41):
        rep = _gauss_rep(p)
        assert _gauss_pow12(rep.x, rep.y) == _gauss_pow12(-rep.x, -rep.y)
    for p in (7, 13, 19, 31, 37):
        rep = _eis_rep(p)
        assert _eis_pow12(rep.z, rep.w) == _eis_pow12(-rep.z, -rep.w)


def test_rep_constructors_validate():
    with pytest.raises(ValueError):
        GaussRep(5, 2, 1, True)  # parity swapped
    with pytest.raises(ValueError):
        GaussRep(5, 3, 2, True)  # 3^2 + 2^2 != 5
    with pytest.raises(ValueError):
        EisRep(7, 1, 1, True)  # 1 + 3 != 7


def test_reps_match_enumeration_below_2e5():
    _assert_reps_match_enumeration([p for p in primes_below(200_000) if p >= 5])


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


# hypothesis favours small integers, so the top decade gets its own branch
primes_to_1e9 = (
    st.integers(min_value=5, max_value=10**9)
    | st.integers(min_value=10**8, max_value=10**9)
).map(_next_prime)


@given(primes_to_1e9)
@settings(max_examples=40, deadline=None)
def test_reps_match_enumeration_to_1e9(p):
    _assert_reps_match_enumeration([p])


@given(st.integers(min_value=5, max_value=10**40).map(_next_prime))
@settings(max_examples=60)
def test_cornacchia_never_raises_on_a_certified_prime(p):
    if p % 4 == 1:
        x, y = quadrep._cornacchia(1, p)
        assert x * x + y * y == p and x % 2 == 1 and y >= 0
    if p % 3 == 1:
        z, w = quadrep._cornacchia(3, p)
        assert z * z + 3 * w * w == p and z >= 0 and w >= 0


@pytest.mark.parametrize("d, kind", [(1, "quadratic"), (3, "cubic")])
def test_nonresidue_search_is_capped(d, kind):
    # every z below the cap 2 (ln 25)^2 has r^2 != -d (mod 25), with r = z^6
    # for d = 1 and r = 2 z^8 + 1 for d = 3, so the search gives up instead
    # of running on
    with pytest.raises(ConsistencyError, match=f"no {kind} nonresidue"):
        quadrep._cornacchia(d, 25)


def test_p26_cm_at_a_prime_near_1e30_is_fast():
    m = 10**30 + 1
    while not is_prime(m):
        m += 12
    start = time.perf_counter()
    value = p26_cm((m - 13) // 12)
    assert time.perf_counter() - start < 1.0
    assert value != 0
