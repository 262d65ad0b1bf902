"""Exact evaluation of the CM eigenform coefficients t1 and t2.

p26(n) is recovered from the coefficient combination at m = 12n + 13:

    p26(n) = 2 * (t1p(m) - t2p(m)) / 32617728

where t1p and t2p are multiplicative and satisfy a two-term recursion at
prime powers.  The paper (after Serre) writes the numerator with four
terms, t1p and t2p plus their minus twists; the twists equal t1p and t2p
at every m = 1 mod 12 (see coeff_bundle), so two terms remain.  t1
values live in Z[sqrt(-3)], computed as integer pairs (a, b) for
a + b*sqrt(-3), t2 values in Z; every computation is exact integer
arithmetic, no floating point anywhere.

Prime values by residue class of p (mod 12), read off the twelfth powers
pi^12 = (x + iy)^12 and rho^12 = (z + w*sqrt(-3))^12 of the normalized
x^2 + y^2 = p and z^2 + 3w^2 = p (_pow12):
  * 11: both t1 and t2 vanish at p (p inert on both sides).
  *  7: t2(p) = 0; t1(p) = -2 Im(rho^12) * sqrt(-3).
  *  5: t1(p) = 0; t2(p) = 2 Im(pi^12).
  *  1: t1(p) = +/-2 Re(rho^12), t2(p) = +/-2 Re(pi^12), each sign from
        its representation's sign_plus bit.

All functions are pure.  Prime values come from one core, _prime_values, on
primes already certified; it caches only primes below SIEVE_BOUND.  Prime
powers come from one generator, t_prime_powers, which runs the recursion
on t1 and t2 together from that core's triple.  p26 comes from one
product loop over a factorization of m, _products, and one checked
division, _p26: coeff_bundle keeps m, t1p and t2p in a CoeffBundle, and
p26_cm, which classify calls at every index of a range, builds no bundle.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice

from .arith import SIEVE_BOUND, Factorization, factorize, is_prime
from .errors import ConsistencyError
from .quadrep import _eis_rep, _gauss_rep

# 2^8 * 3^4 * 11^2 * 13; the combination below is always exactly
# divisible by it.
P26_DENOMINATOR = 32617728


@dataclass(frozen=True, slots=True)
class AlgInt3:
    """a + b*sqrt(-3) with arbitrary-precision components: a value, with no arithmetic."""

    a: int
    b: int


def _pow12(u: int, v: int, d: int) -> tuple[int, int]:
    """(re, im) of (u + v*sqrt(-d))^12: square twice, then cube."""
    for _ in range(2):
        u, v = u * u - d * v * v, 2 * u * v
    uu, dvv = u * u, d * v * v
    return u * (uu - 3 * dvv), v * (3 * uu - dvv)


_SMALL_VALUES: dict[int, tuple[int, int, int]] = {}


def _prime_values(p: int) -> tuple[int, int, int]:
    """(a, b, t2(p)) with t1(p) = a + b*sqrt(-3) at a prime p >= 5 the caller vouches for."""
    if p in _SMALL_VALUES:
        return _SMALL_VALUES[p]
    r = p % 12
    if r == 11:
        values = (0, 0, 0)
    elif r == 5:
        g = _gauss_rep(p)
        values = (0, 0, 2 * _pow12(g.x, g.y, 1)[1])
    elif r == 7:
        e = _eis_rep(p)
        values = (0, -2 * _pow12(e.z, e.w, 3)[1], 0)
    else:
        g, e = _gauss_rep(p), _eis_rep(p)
        t1 = 2 * _pow12(e.z, e.w, 3)[0]
        t2 = 2 * _pow12(g.x, g.y, 1)[0]
        values = (t1 if e.sign_plus else -t1, 0, t2 if g.sign_plus else -t2)
    if p < SIEVE_BOUND:
        _SMALL_VALUES[p] = values
    return values


def t2_prime(p: int) -> int:
    """t2(p) at a prime p >= 5 (the + branch; the - branch is +/- it)."""
    _require_prime(p)
    return _prime_values(p)[2]


def t1_prime(p: int) -> AlgInt3:
    """t1(p) at a prime p >= 5, as an element of Z[sqrt(-3)]."""
    _require_prime(p)
    return AlgInt3(*_prime_values(p)[:2])


def _require_prime(p: int) -> None:
    if p in (2, 3) or not is_prime(p):
        raise ValueError(f"expected a prime not dividing 6, got {p}")


def t_prime_powers(p: int, a: int, b: int, c: int) -> Iterator[tuple[int, int, int]]:
    """(a_r, b_r, c_r) for r = 0, 1, 2, ... with t1(p^r) = a_r + b_r*sqrt(-3) and t2(p^r) = c_r.

    t1(p) = a + b*sqrt(-3) and t2(p) = c, the triple _prime_values(p)
    returns.  With chi = +1 for p = 1 mod 4 and -1 for p = 3 mod 4, both
    follow the two-term Hecke recursion

        t(p^r) = t(p) * t(p^(r-1)) - chi * p^12 * t(p^(r-2)),

    anchored at t(p^-1) = 0, t(p^0) = 1, and run together on integers in
    one loop that holds only the last two entries.  The stream is endless;
    callers take a bounded prefix with itertools.islice.
    """
    step = p**12 if p % 4 == 1 else -p**12
    a1, b1, c1, a2, b2, c2 = 1, 0, 1, 0, 0, 0
    while True:
        yield a1, b1, c1
        a1, b1, c1, a2, b2, c2 = (a * a1 - 3 * b * b1 - step * a2,
                                  a * b1 + b * a1 - step * b2,
                                  c * c1 - step * c2, a1, b1, c1)


def _p26(m: int, a: int, b: int, t2p: int) -> int:
    """p26 at m from t1p = a + b*sqrt(-3) and t2p: 2 * (t1p - t2p) / P26_DENOMINATOR.

    ConsistencyError unless t1p is rational and the division is exact.
    """
    if b != 0:
        raise ConsistencyError(f"t1p not rational at m={m}: {AlgInt3(a, b)}")
    p26, rem = divmod(2 * (a - t2p), P26_DENOMINATOR)
    if rem != 0:
        raise ConsistencyError(
            f"combination {2 * (a - t2p)} at m={m} not divisible by {P26_DENOMINATOR}")
    return p26


@dataclass(frozen=True)
class CoeffBundle:
    """t1p and t2p at one m = 1 mod 12.

    Construction stores p26 from _p26, which checks the combination as
    p26_cm does.
    """

    m: int
    t1p: AlgInt3
    t2p: int
    p26: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "p26", _p26(self.m, self.t1p.a, self.t1p.b, self.t2p))

    def combination(self) -> AlgInt3:
        """2 * (t1p - t2p), the multiple of P26_DENOMINATOR p26 is read from, built on integers."""
        return AlgInt3(2 * (self.t1p.a - self.t2p), 2 * self.t1p.b)


def _products(m: int, fac: Factorization | None) -> tuple[int, int, int]:
    """(a, b, t2p) with t1p(m) = a + b*sqrt(-3), multiplied over m's prime powers.

    fac is m's factorization (ValueError if its value is not m), or None
    to have factorize make it.
    """
    if fac is None:
        fac = factorize(m)
    elif fac.value != m:
        raise ValueError(f"got the factorization of {fac.value}, not of m={m}")
    a, b, t2p = 1, 0, 1
    for p, alpha in fac.factors:
        ta, tb, t2 = _prime_values(p)
        if alpha > 1:
            ta, tb, t2 = next(islice(t_prime_powers(p, ta, tb, t2), alpha, None))
        a, b = a * ta - 3 * b * tb, a * tb + b * ta
        t2p *= t2
    return a, b, t2p


def coeff_bundle(m: int) -> CoeffBundle:
    """Assemble t1p and t2p at m = 12n + 13 multiplicatively, over factorize(m).

    The paper's minus twists negate t1p (t2p) when an odd number of primes
    = 7 (5) mod 12 divide m to an odd power.  That sign never matters:
    (Z/12)* is a Klein four-group, so at m = 1 mod 12 the counts of primes
    = 5, 7 and 11 (mod 12) dividing m to an odd power share one parity, and
    when it is odd some l = 11 (mod 12) has odd exponent and t1p = t2p = 0.
    """
    if m % 12 != 1 or m < 13:
        raise ValueError(f"coeff_bundle expects m = 1 mod 12, m >= 13, got {m}")
    a, b, t2p = _products(m, None)
    return CoeffBundle(m, AlgInt3(a, b), t2p)


def p26_cm(n: int, fac: Factorization | None = None) -> int:
    """p26(n) via the exact coefficient combination at m = 12n + 13.

    fac is m's factorization (ValueError if its value is not m), or None
    to have factorize make it.  The value is coeff_bundle(m).p26, with no
    bundle built.
    """
    if n < 0:
        raise ValueError("p26_cm expects n >= 0")
    m = 12 * n + 13
    return _p26(m, *_products(m, fac))
