"""Arbitrary-precision integer utilities: primality and factorization.

Everything here is a pure function of its inputs; returned values are
immutable and safe to share between concurrent tasks.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import InitVar, dataclass
from itertools import compress, count
from typing import Iterator

from .errors import FactoringBudgetError

# Primes below this bound come from one import-time sieve: is_prime looks
# them up, _primes reads them off it, and hecke caches prime values below it.
SIEVE_BOUND = 100_000

# Miller-Rabin with the first k prime bases proves m prime below psi_k, the
# least strong pseudoprime to all of them (OEIS A014233: Jaeschke 1993; k >= 9
# Jiang & Deng 2014, Sorenson & Webster 2017).  Larger inputs additionally get
# 64 rounds with pseudo-random bases, for an error probability below 2**-128.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
        *[341_550_071_728_321] * 2, *[3_825_123_056_546_413_051] * 3,
        318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981)
_EXTRA_ROUNDS = 64

# Default cap on the budget units of one factorize() call: one per charged
# Pollard-Brent step and one per multiplication mod n on an elliptic curve.
# 1e7 units take about 3 s on a 28-digit cofactor and 4.6 s on a 51-digit
# one; 40 products of two primes in [5e13, 1e14] took up to 5.4e6.
DEFAULT_FACTOR_BUDGET = 10_000_000

# A Brent walk hands its cofactor to the elliptic curve method when its round
# length reaches this, after _ECM_ROUND - 1 steps: a cofactor with a prime
# below about 1e5 is split by Brent sooner and never pays for a curve.
_ECM_ROUND = 2_048
# Curves start at stage-1 bound _ECM_B1, which doubles after every
# _ECM_CURVES_PER_B1 curves that find no proper factor, so that few B1 (and
# cached plans) occur.  _ECM_D is the giant step of stage 2.
_ECM_B1 = 150
_ECM_CURVES_PER_B1 = 8
_ECM_D = 210

# factor_progression sieves blocks of at most this many indices.
_PROGRESSION_BLOCK = 512
# _primes sieves past SIEVE_BOUND in segments of this many numbers.
_PRIME_SEGMENT = 1 << 16


def _sieve(bound: int) -> bytearray:
    """flags[i] == 1 exactly when i < bound is prime."""
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(range(i * i, bound, i))
    return flags


# Primality below SIEVE_BOUND is a lookup in this table.
_SMALL_FLAGS = _sieve(SIEVE_BOUND)
# factorize trial-divides by these, the 168 primes below 1000, and hands
# what is left to Miller-Rabin and Pollard-Brent.
_TRIAL_PRIMES = list(compress(range(1_000), _SMALL_FLAGS))


def _primes(bound: int) -> Iterator[int]:
    """The primes p < bound, ascending, in memory that does not grow with bound.

    Those below SIEVE_BOUND are read off _SMALL_FLAGS; past it, each segment
    of _PRIME_SEGMENT numbers is sieved by the primes to sqrt(bound), which
    this generator makes itself, and read before the next is made.
    """
    yield from compress(range(min(bound, SIEVE_BOUND)), _SMALL_FLAGS)
    if bound <= SIEVE_BOUND:
        return
    base = list(_primes(math.isqrt(bound - 1) + 1))
    for lo in range(SIEVE_BOUND, bound, _PRIME_SEGMENT):
        hi = min(lo + _PRIME_SEGMENT, bound)
        flags = bytearray([1]) * (hi - lo)
        for p in base:
            if p * p >= hi:
                break
            first = max(p * p, -(-lo // p) * p) - lo
            flags[first::p] = bytes(len(range(first, hi - lo, p)))
        yield from compress(range(lo, hi), flags)


def primes_below(bound: int) -> list[int]:
    """All primes p < bound, ascending."""
    return list(_primes(bound))


def _miller_rabin(n: int, base: int) -> bool:
    # n odd, n > 2, 1 < base < n assumed
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(m: int) -> bool:
    """Primality test.

    Exact by sieve lookup below SIEVE_BOUND; deterministic
    Miller-Rabin below 3.3e24, stopping after base k once m < psi_k of OEIS
    A014233 (_PSI: 2 bases below 1.37e6, 5 below 2.1e12); beyond that the
    answer is probabilistic with error probability below 2**-128.  The extra
    bases are drawn from an RNG seeded by m, so the answer is reproducible.
    """
    if m < 0:
        raise ValueError("is_prime expects m >= 0")
    if m < SIEVE_BOUND:
        return _SMALL_FLAGS[m] == 1
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    for base, psi in zip(_MR_BASES, _PSI):
        if not _miller_rabin(m, base):
            return False
        if m < psi:
            return True
    rng = random.Random(m)
    for _ in range(_EXTRA_ROUNDS):
        if not _miller_rabin(m, rng.randrange(2, m - 1)):
            return False
    return True


def _charge(budget: list[int], units: int, n: int) -> None:
    """Take units from budget[0], and raise once it is spent."""
    budget[0] -= units
    if budget[0] <= 0:
        raise FactoringBudgetError(f"factoring budget exhausted on composite {n}")


def _xadd(xp: int, zp: int, xq: int, zq: int, xd: int, zd: int, n: int) -> tuple[int, int]:
    """x(P + Q) on a Montgomery curve, from x(P), x(Q) and x(P - Q): 6 multiplications."""
    u = (xp - zp) * (xq + zq)
    v = (xp + zp) * (xq - zq)
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _xdbl(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """x(2P) on the Montgomery curve with a24 = (A + 2) / 4: 5 multiplications."""
    s = (x + z) ** 2
    d = (x - z) ** 2
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


@functools.cache
def _ecm_plan(b1: int) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """(k, steps, cost) of one curve with stage-1 bound b1, built on first use.

    k is the product of the largest power <= b1 of each prime.  steps[m - 1]
    lists the odd j < D / 2, D = _ECM_D, for which m * D - j or m * D + j is
    a prime in (b1, B2], with B2 = min(100 * b1, SIEVE_BOUND - 1): a pair of
    primes m * D -+ j costs one factor of the stage-2 product.  cost is the
    number of multiplications mod n in stage 2, to within a few.
    """
    k = 1
    for p in primes_below(b1 + 1):
        q = p
        while q * p <= b1:
            q *= p
        k *= q
    b2 = min(100 * b1, SIEVE_BOUND - 1)
    steps = []
    for m in range(1, (b2 + _ECM_D // 2) // _ECM_D + 1):
        steps.append(tuple(j for j in range(1, _ECM_D // 2, 2) if any(
            b1 < q <= b2 and _SMALL_FLAGS[q] for q in (m * _ECM_D - j, m * _ECM_D + j))))
    cost = 6 * (_ECM_D // 4 + 2 + len(steps)) + 3 * sum(map(len, steps))
    return k, tuple(steps), cost


def _ecm_curve(n: int, sigma: int, b1: int, budget: list[int]) -> int:
    """gcd(n, d) for the d that one elliptic curve finds: 1, a proper factor, or n.

    The curve is Montgomery's By^2 = x^3 + Ax^2 + x with Suyama's
    parametrization by sigma, and P its point with x = u^3 / v^3.  Stage 1
    takes Q = k * P by one Montgomery ladder over k = _ecm_plan(b1)[0], and
    finds each prime p of n at which the order of P divides k.  Stage 2 finds
    those at which Q has prime order q in (b1, B2]: q = m * D +- j with
    x(m * D * Q) = x(j * Q) mod p, so the product of x(mDQ) z(jQ) - x(jQ) z(mDQ)
    over the plan's (m, j) is 0 mod p.  Each stage is charged to budget[0]
    before it runs, one unit per multiplication mod n: 11 per bit of k in
    stage 1, and the plan's cost in stage 2.
    """
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    d = 16 * u**3 * v % n
    g = math.gcd(d, n)
    if g != 1:
        return g
    a24 = (v - u) ** 3 * (3 * u + v) * pow(d, -1, n) % n
    k, steps, cost = _ecm_plan(b1)
    _charge(budget, 11 * k.bit_length(), n)
    x0, z0 = u**3 % n, v**3 % n
    x1, z1 = x0, z0
    x2, z2 = _xdbl(x0, z0, a24, n)
    for bit in bin(k)[3:]:  # (x1 : z1) = i * P, (x2 : z2) = (i + 1) * P
        if bit == "1":
            x1, z1 = _xadd(x2, z2, x1, z1, x0, z0, n)
            x2, z2 = _xdbl(x2, z2, a24, n)
        else:
            x2, z2 = _xadd(x1, z1, x2, z2, x0, z0, n)
            x1, z1 = _xdbl(x1, z1, a24, n)
    g = math.gcd(z1, n)
    if g != 1:
        return g
    _charge(budget, cost, n)
    # baby steps j * Q for odd j up to D / 2, each from (j - 2) * Q + 2 * Q
    x2, z2 = _xdbl(x1, z1, a24, n)
    xj, zj, xp, zp = x1, z1, x1, z1
    baby = {1: (x1, z1)}
    for j in range(3, _ECM_D // 2 + 1, 2):
        xj, zj, xp, zp = *_xadd(xj, zj, x2, z2, xp, zp, n), xj, zj
        baby[j] = xj, zj
    # giant steps m * D * Q, each from (m - 1) * D * Q + D * Q
    xg, zg = _xdbl(xj, zj, a24, n)
    xm, zm, xn, zn = xg, zg, *_xdbl(xg, zg, a24, n)
    acc = 1
    for js in steps:
        for j in js:
            xb, zb = baby[j]
            acc = acc * (xm * zb - xb * zm) % n
        xm, zm, xn, zn = xn, zn, *_xadd(xn, zn, xg, zg, xm, zm, n)
    return math.gcd(acc, n)


def _ecm(n: int, budget: list[int]) -> int:
    """A proper factor of odd composite n by Lenstra's elliptic curve method.

    Runs _ecm_curve with sigma drawn from an RNG seeded by n, so the factor is
    reproducible, and B1 = _ECM_B1 doubled after every _ECM_CURVES_PER_B1
    curves, until a curve finds a proper factor.  A curve that finds every
    prime of n at once is passed over like one that finds none.  The curves
    are charged to budget[0], which ends the search with FactoringBudgetError.
    """
    rng = random.Random(n)
    for curve in count():
        b1 = _ECM_B1 << (curve // _ECM_CURVES_PER_B1)
        g = _ecm_curve(n, rng.randrange(6, n - 1), b1, budget)
        if 1 < g < n:
            return g


def _pollard_brent(n: int, budget: list[int]) -> int:
    """A nontrivial factor of composite odd n, or raises on empty budget.

    The walk's head, its rounds of length 1 to _ECM_ROUND / 2, takes
    _ECM_ROUND - 1 = 2047 steps, and splits off a least prime p below about
    1e5 in about sqrt(p) steps.  A walk that reaches round length _ECM_ROUND
    without a factor returns _ecm(n, budget) and does not resume.  budget[0]
    is charged one unit for each step whose difference enters the gcd
    product, not for each round's skip steps or the backtrack.
    """
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if r == _ECM_ROUND:
                return _ecm(n, budget)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                _charge(budget, min(m, r - k), n)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle degenerated; retry with a fresh polynomial


def _trial_divide(m: int) -> tuple[list[tuple[int, int]], int]:
    """(p, e) for each trial prime that divides m, and the rest, up to the first p * p > rest."""
    factors = []
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    return factors, m


@dataclass(frozen=True)
class Factorization:
    """Complete prime factorization: value == prod(p**e for p, e in factors).

    Primes are strictly increasing and certified by is_prime; exponents
    are >= 1.  factors is empty exactly when value == 1.  factorize, whose
    primes come from the sieve or have passed is_prime already, passes
    _certified=True so that they are not tested a second time.
    """

    value: int
    factors: tuple[tuple[int, int], ...]
    _certified: InitVar[bool] = False

    def __post_init__(self, _certified: bool) -> None:
        if self.value < 1:
            raise ValueError("Factorization.value must be positive")
        prod = 1
        last = 1
        for p, e in self.factors:
            if e < 1:
                raise ValueError(f"exponent {e} < 1 for prime {p}")
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if not (_certified or is_prime(p)):
                raise ValueError(f"{p} is not prime")
            last = p
            prod *= p**e
        if prod != self.value:
            raise ValueError("factors do not multiply back to value")

    def __iter__(self):
        return iter(self.factors)


def factorize(m: int, budget: int = DEFAULT_FACTOR_BUDGET) -> Factorization:
    """Complete prime factorization of m >= 1.

    One path for every m: trial division by _TRIAL_PRIMES, the 168 primes
    below 1000, stops at the first p with p * p > m, so a cofactor left
    below 997**2 is 1 or a prime, taken with no primality test.  Every
    larger prime that trial division does not take out is certified by
    is_prime, and no number is tested twice in one call.  A composite
    cofactor that is not a square is split in two parts.  The head is a
    Pollard-Brent walk of at most 2047 steps (_ECM_ROUND - 1), which splits
    off a least prime p below about 1e5 in about sqrt(p) steps.  A cofactor
    that the head does not split goes to Lenstra's elliptic curve method:
    Montgomery curves with Suyama's sigma from an RNG seeded by the
    cofactor, stage 1 to B1 by one ladder, stage 2 to B2 = min(100 * B1,
    SIEVE_BOUND - 1) by baby-step giant-step, with B1 = 150 doubled after
    every 8 curves that find no proper factor.  Its cost grows
    subexponentially in the digits of the least prime, not with the prime's
    square root.  `budget` is charged one unit per head step whose
    difference enters the gcd product, and one unit per multiplication mod
    the cofactor on a curve.  A call that spends it raises
    FactoringBudgetError instead of hanging.
    """
    if m < 1:
        raise ValueError("factorize expects m >= 1")
    return _with_cofactor(m, *_trial_divide(m), _TRIAL_PRIMES[-1] ** 2, budget)


def _with_cofactor(value: int, factors: list[tuple[int, int]], rest: int, limit: int,
                   budget: int = DEFAULT_FACTOR_BUDGET) -> Factorization:
    """value's factorization from the primes factors and what is left of value, rest.

    A rest below limit is 1 or a prime.  From limit on, each cofactor is
    certified by is_prime or split, as factorize describes, charging budget.
    """
    if rest < limit:  # 1 or a prime
        if rest > 1:
            factors.append((rest, 1))
        return Factorization(value, tuple(factors), _certified=True)
    counts = dict(factors)
    remaining = {rest: 1}  # cofactor -> multiplicity
    verdicts: dict[int, bool] = {}  # is_prime(n) of every n tested so far
    budget_box = [budget]
    while remaining:
        n, e = remaining.popitem()
        if n not in verdicts:
            verdicts[n] = is_prime(n)
        if verdicts[n]:
            counts[n] = counts.get(n, 0) + e
            continue
        root = math.isqrt(n)
        if root * root == n:
            parts = (root, root)
        else:
            d = _pollard_brent(n, budget_box)
            parts = (d, n // d)
        for part in parts:
            remaining[part] = remaining.get(part, 0) + e
    return Factorization(value, tuple(sorted(counts.items())), _certified=True)


def factor_progression(step: int, offset: int, start: int,
                       end: int) -> Iterator[Factorization]:
    """factorize(step * n + offset) for n = start, ..., end, in index order, by one sieve.

    The first index goes to factorize, with no per-prime set-up.  Then each
    prime p that _primes yields up to min(sqrt(step * end + offset),
    SIEVE_BOUND - 1) takes its first index once, and divides it and every
    p-th index after it out of blocks of _PROGRESSION_BLOCK indices; a p
    that divides step divides every term or none.  What is left of a term
    is 1 or a prime unless the primes were capped: a cofactor that may be
    composite goes straight to the cofactor loop of _with_cofactor, with its
    budget.
    """
    if step < 1 or offset < 1 or start < 0 or end < start:
        raise ValueError("factor_progression expects step, offset >= 1 and 0 <= start <= end")
    yield factorize(step * start + offset)
    bound = min(math.isqrt(step * end + offset), SIEVE_BOUND - 1)
    lo, limit = start + 1, (bound + 1) ** 2
    sieve = []  # [p, stride, next index] of each prime that divides some term
    for p in _primes(bound + 1):
        if step % p:
            sieve.append([p, p, lo + -(step * lo + offset) * pow(step, -1, p) % p])
        elif offset % p == 0:
            sieve.append([p, 1, lo])
    while lo <= end:
        size = min(_PROGRESSION_BLOCK, end - lo + 1)
        rests = list(range(step * lo + offset, step * (lo + size) + offset, step))
        found: list[list[tuple[int, int]]] = [[] for _ in rests]
        for entry in sieve:
            p, stride, i = entry[0], entry[1], entry[2] - lo
            if i < size:
                for i in range(i, size, stride):
                    r, e = rests[i] // p, 1
                    while r % p == 0:
                        r //= p
                        e += 1
                    rests[i] = r
                    found[i].append((p, e))
                entry[2] = lo + i + stride
        for i, rest in enumerate(rests):
            yield _with_cofactor(step * (lo + i) + offset, found[i], rest, limit)
        lo += size
