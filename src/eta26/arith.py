"""Arbitrary-precision integer utilities: primality and factorization.

Everything here is a pure function of its inputs; returned values are
immutable and safe to share between concurrent tasks.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import InitVar, dataclass
from itertools import compress

from .errors import FactoringBudgetError

# Primes below this bound come from one sieve: is_prime looks them up, and
# primes_below and hecke's prime-value cache read them.
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

# Default cap on the charged Pollard-Brent steps of one factorize() call.
DEFAULT_FACTOR_BUDGET = 4_000_000

# Pollard p - 1 bounds.  _PM1_B1 stays below 109**2, so that the order of 2
# mod 1000000009, 3**2 * 7 * 109**2 * 167, keeps a budget test for Brent.
_PM1_B1 = 2_000
_PM1_B2 = 20_000
# A Brent walk tries one p - 1 pass when its round length reaches this, after
# _PM1_ROUND - 1 steps, which cost about as much as the pass: a cofactor that
# Brent splits sooner never pays for p - 1, and one it splits later pays at
# most about twice what Brent alone would.
_PM1_ROUND = 2_048


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
_SMALL_PRIMES = list(compress(range(SIEVE_BOUND), _SMALL_FLAGS))
# factorize trial-divides by these, the 168 primes below 1000, and hands
# what is left to Miller-Rabin and Pollard-Brent.
_TRIAL_PRIMES = _SMALL_PRIMES[: bisect_left(_SMALL_PRIMES, 1_000)]


def primes_below(bound: int) -> list[int]:
    """All primes p < bound, ascending."""
    if bound <= SIEVE_BOUND:
        return _SMALL_PRIMES[: bisect_left(_SMALL_PRIMES, bound)]
    return list(compress(range(bound), _sieve(bound)))


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


@functools.cache
def _pm1_exponent() -> int:
    """The product of the largest power <= _PM1_B1 of each prime, built on first use."""
    e = 1
    for p in primes_below(_PM1_B1 + 1):
        q = p
        while q * p <= _PM1_B1:
            q *= p
        e *= q
    return e


def _pm1(n: int) -> int:
    """A proper factor of odd composite n by Pollard's p - 1 method, or 1.

    With E = _pm1_exponent() and h = 2**E mod n, stage 1 finds each prime p
    of n for which the order of 2 mod p divides E; stage 2 finds those for
    which it divides E * q for one prime q in (_PM1_B1, _PM1_B2], stepping
    h**q from prime to prime by a power of h per prime gap.  It returns 1
    when it finds no prime of n, or all of them at once.
    """
    h = pow(2, _pm1_exponent(), n)
    g = math.gcd(h - 1, n)
    if g == 1:
        lo, hi = (bisect_right(_SMALL_PRIMES, b) for b in (_PM1_B1, _PM1_B2))
        primes = _SMALL_PRIMES[lo:hi]
        hq = pow(h, primes[0], n)
        acc = hq - 1
        steps: dict[int, int] = {}  # gap -> h**gap mod n
        for prev, q in zip(primes, primes[1:]):
            gap = q - prev
            if gap not in steps:
                steps[gap] = pow(h, gap, n)
            hq = hq * steps[gap] % n
            acc = acc * (hq - 1) % n
        g = math.gcd(acc, n)
    return g if g < n else 1


def _pollard_brent(n: int, budget: list[int]) -> int:
    """A nontrivial factor of composite odd n, or raises on empty budget.

    budget[0] is charged for the steps that enter the gcd product, not for
    each round's skip steps or the backtrack: about a third to a half of
    all squarings (14,719 of 31,102 on 1000000007 * 1000000009).
    A walk that reaches round length _PM1_ROUND without a factor returns
    the factor of one _pm1 pass, if it finds one, and resumes otherwise.
    """
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if r == _PM1_ROUND and (d := _pm1(n)) > 1:
                return d
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= min(m, r - k)
                if budget[0] <= 0:
                    raise FactoringBudgetError(
                        f"factoring budget exhausted on composite {n}"
                    )
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
    below 1e6 is 1 or a prime.  Every prime that trial division does not
    take out is certified by is_prime, and no number is tested twice in
    one call.  A composite cofactor that is not a square is split
    by a Pollard-Brent walk, about sqrt(p) steps for its least prime p; a
    walk that has not split it after _PM1_ROUND - 1 steps tries one p - 1
    pass with bounds _PM1_B1 = 2000 and _PM1_B2 = 20000, and resumes if
    that finds no proper factor.  `budget` is charged only for the Brent
    steps whose differences enter the gcd product; each round's skip steps,
    the backtrack and the p - 1 passes are not charged, so one call makes
    up to about 3 * budget squarings.  A pathological input raises
    FactoringBudgetError instead of hanging.
    """
    if m < 1:
        raise ValueError("factorize expects m >= 1")
    value = m
    counts: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    remaining = {m: 1} if m > 1 else {}  # cofactor -> multiplicity
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
