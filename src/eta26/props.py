"""Batch verification of divisibility, periodicity, and nonvanishing claims.

Each verifier states its claims about one prime as a generator of
witness tuples (prime, exponent, detail); one table, _VERIFIERS, gives each
its prop id and residue classes mod 12, and run_all checks the primes of
those classes below a configurable bound.  The result is a PropReport whose
failure list must be empty on a correct build.  Any entry is a red-flag
output carrying the full witness.  run_all makes one pass over the
primes of arith._primes, a segmented sieve whose memory does not grow
with the bound: the triple (a, b, c) with t1(p) = a + b*sqrt(-3) and
t2(p) = c is read once per prime from the trusted core hecke._prime_values,
with no second primality test, and handed to every verifier whose classes
contain p; each report keeps its own count, spot checks and failures in
prime order.

Divisibility and periodicity claims read _residues, the Hecke recursion
reduced mod 5 or mod 7 over pairs (x, y) for x + y*sqrt(-3).  Such a
sequence depends on p only through its residue state (t(p) mod q,
chi*p^12 mod q) and is eventually periodic, so _period keeps one period
per state, whatever the bounds; for the first primes of every class it
is spot-checked against the exact hecke.t_prime_powers to keep the
reduced path honest.  At p = 5 and p = 7 (mod 12) those primes are also
checked against the independent q-series oracle, which pins the sign
conventions that the mod-5 / mod-7 claims cannot see.  The difference
claims read one exact t_prime_powers stream of t1 and t2 per prime, two
entries held at a time, with no reduction.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice

from .arith import _primes
from .errors import BudgetError
from .hecke import P26_DENOMINATOR, _prime_values, t_prime_powers
from .series import p26_oracle

DEFAULT_PRIME_BOUND = 10_000
DEFAULT_EXPONENT_BOUND = 14
DEFAULT_L_BOUND = 3
MIN_PRIME_BOUND = 14  # 13 is the least prime = 1 (mod 12)

_SPOT_CHECKS = 3  # primes per class compared against full precision

# run_all's work, estimated before it starts as
# max(prime_bound, 10000) * (1000 + exponent_bound**2 + 30 * l_bound): per
# prime, a fixed cost, the exact t(p^a) of the difference claims and the
# periodicity loops.  A unit is 2-3 ns on a 2-vCPU x86-64 VM under CPython 3.11:
# (1e4, 400, 3) took 4.9 s, (1e4, 14, 1e4) 7.5 s and (1e7, 14, 3) 24.5 s.
# Below a prime bound of 1e4, one prime's exact t(p^a), each up to about
# 6 * exponent_bound * log2(p) bits, cost more than the count of primes, so
# the estimate counts at least 1e4.  The budget is about a minute.
WORK_BUDGET = 20_000_000_000

# Oracle identities at m = 12n + 13 = 5p and 7p (criteria 1 and 2 pin
# t2(5) = 20592 and t1(7) = -102960 sqrt(-3)):
#   t2(p) = -792 p26((5p - 13)/12)                  for p = 5 (mod 12)
#   617760 t1(p).b = 32617728 p26((7p - 13)/12)     for p = 7 (mod 12)
# with 617760 = -6 * (-102960).
_T2_ORACLE_FACTOR = -792
_T1_ORACLE_FACTOR = 617760

Witness = tuple[int, int | None, str]
# claims(p, spot, a, b, c, bound), with t1(p) = a + b*sqrt(-3) and t2(p) = c,
# yields the witnesses of the claims that fail at p
Claims = Callable[[int, bool, int, int, int, int], Iterator[Witness]]


@dataclass(frozen=True)
class PropReport:
    """Outcome of one verification sweep.

    checked counts the primes examined; failures holds
    (prime, exponent-or-None, detail) witness tuples.  For
    periodicity-1mod12, exponent_bound holds the l_bound.
    """

    prop_id: str
    prime_bound: int
    exponent_bound: int
    checked: int
    failures: tuple[Witness, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


# (ta, tb, step, q) -> _period's (seq, start), one entry per residue state
_PERIODS: dict[tuple[int, int, int, int], tuple[tuple[tuple[int, int], ...], int]] = {}


def _period(ta: int, tb: int, step: int, q: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """(seq, start): the recursion mod q from t(p) = ta + tb*sqrt(-3) and chi*p^12 = step.

    seq ends at its first repeated state, a pair of consecutive entries,
    which first occurs at seq[start]; from there on the sequence repeats
    seq[start:-2].  At p = q, step = 0 and t(p) = 0 give 1, 0, 0, ...: start = 1.
    """
    key = (ta, tb, step, q)
    if key not in _PERIODS:
        out, seen = [(1, 0), (ta, tb)], {}
        while (state := (out[-2], out[-1])) not in seen:
            seen[state] = len(out) - 2
            (a2, b2), (a1, b1) = state
            out.append(((ta * a1 - 3 * tb * b1 - step * a2) % q,
                        (ta * b1 + tb * a1 - step * b2) % q))
        _PERIODS[key] = (tuple(out), seen[state])
    return _PERIODS[key]


def _residues(ta: int, tb: int, p: int, alpha_max: int, q: int) -> list[tuple[int, int]]:
    """t(p^alpha) mod q for alpha = 0..alpha_max from t(p) = ta + tb*sqrt(-3), in a new list."""
    step = (pow(p, 12, q) if p % 4 == 1 else -pow(p, 12, q)) % q
    seq, start = _period(ta % q, tb % q, step, q)
    cycle = seq[start:-2]
    return [*seq[:start], *cycle * (alpha_max // len(cycle) + 1)][: alpha_max + 1]


def _spot_check(ta: int, tb: int, p: int, alpha_max: int, q: int) -> bool:
    """The reduced recursion against the exact one, mod q."""
    exact = islice(t_prime_powers(p, ta, tb, 0), alpha_max + 1)
    return _residues(ta, tb, p, alpha_max, q) == [(x % q, y % q) for x, y, _ in exact]


def _t2_at_5_mod_12(p: int, spot: bool, a: int, b: int, c: int,
                    exponent_bound: int) -> Iterator[Witness]:
    """Divisibility of t2 at primes p = 5 (mod 12).

    Claims checked per prime: 5 divides t2(p) except at p = 5; 5 never
    divides t2(p^(2r)) for 1 <= r <= exponent_bound; t2(p) mod 7 lies in
    {0, 2, 5}; and 7 | t2(p) exactly when p = 1, 2 or 4 (mod 7).  The
    first _SPOT_CHECKS primes must also satisfy t2(p) = -792 p26(n) with
    12n + 13 = 5p, from the series oracle.
    """
    if p == 5:
        if c % 5 == 0:
            yield (p, 1, "expected 5 to not divide t2(5)")
    elif c % 5 != 0:
        yield (p, 1, "expected 5 | t2(p)")
    if c % 7 not in (0, 2, 5):
        yield (p, 1, f"t2(p) mod 7 = {c % 7}, not in {{0,2,5}}")
    if (c % 7 == 0) != (p % 7 in (1, 2, 4)):
        yield (p, 1, "7 | t2(p) iff p = 1,2,4 (mod 7) violated")
    res5 = _residues(c, 0, p, 2 * exponent_bound, 5)
    for r in range(1, exponent_bound + 1):
        if res5[2 * r] == (0, 0):
            yield (p, 2 * r, "expected 5 to not divide t2(p^(2a))")
    if spot:
        if not _spot_check(c, 0, p, min(6, 2 * exponent_bound), 5):
            yield (p, None, "reduced mod-5 recursion mismatch")
        if c != _T2_ORACLE_FACTOR * p26_oracle((5 * p - 13) // 12):
            yield (p, 1, "t2(p) != -792 * p26((5p - 13)/12)")


def _t1_at_7_mod_12(p: int, spot: bool, a: int, b: int, c: int,
                    exponent_bound: int) -> Iterator[Witness]:
    """Divisibility of t1 at primes p = 7 (mod 12).

    t1(p) = b * sqrt(-3); checks 5 | b always, 7 | b exactly when
    p != 7, and that neither 5 nor 7 divides t1(p^(2r)) for
    1 <= r <= exponent_bound.  The first _SPOT_CHECKS primes must also
    satisfy 617760 b = 32617728 p26(n) with 12n + 13 = 7p, from the
    series oracle.
    """
    if a != 0:
        yield (p, 1, "t1(p) should be a pure sqrt(-3) multiple")
    if spot:
        for q in (5, 7):
            if not _spot_check(a, b, p, min(6, 2 * exponent_bound), q):
                yield (p, None, f"reduced mod-{q} recursion mismatch")
        oracle = P26_DENOMINATOR * p26_oracle((7 * p - 13) // 12)
        if _T1_ORACLE_FACTOR * b != oracle:
            yield (p, 1, "617760 * t1(p)/sqrt(-3) != 32617728 * p26((7p - 13)/12)")
    if b % 5 != 0:
        yield (p, 1, "expected 5 | t1(p)/sqrt(-3)")
    if (b % 7 == 0) == (p == 7):
        yield (p, 1, "7 | t1(p)/sqrt(-3) iff p != 7 violated")
    for q in (5, 7):
        res = _residues(a, b, p, 2 * exponent_bound, q)
        for r in range(1, exponent_bound + 1):
            x, y = res[2 * r]
            if y != 0:
                yield (p, 2 * r, f"t1(p^(2a)) mod {q} not rational")
            if x == 0:
                yield (p, 2 * r, f"expected {q} to not divide t1(p^(2a))")


def _split_at_1_mod_12(p: int, spot: bool, a: int, b: int, c: int,
                       exponent_bound: int) -> Iterator[Witness]:
    """Residue membership and exponent criteria at primes p = 1 (mod 12).

    Checks t2(p) mod 5 in {2, 3}, t2(p) mod 7 in {0, 2, 5}, t1(p) mod 7
    in {2, 5}, t1(p) mod 5 in {2, 3}, and the two exponent criteria:
    5 divides t2(p^r) exactly when r = 4 (mod 5), and 7 divides t1(p^r)
    exactly when r = 6 (mod 7).  exponent_bound >= 14 crosses both
    periods at least twice.
    """
    if b != 0:
        yield (p, 1, "t1(p) should be rational at p = 1 (mod 12)")
    if c % 5 not in (2, 3):
        yield (p, 1, f"t2(p) mod 5 = {c % 5}, not in {{2,3}}")
    if c % 7 not in (0, 2, 5):
        yield (p, 1, f"t2(p) mod 7 = {c % 7}, not in {{0,2,5}}")
    if a % 7 not in (2, 5):
        yield (p, 1, f"t1(p) mod 7 = {a % 7}, not in {{2,5}}")
    if a % 5 not in (2, 3):
        yield (p, 1, f"t1(p) mod 5 = {a % 5}, not in {{2,3}}")
    res5 = _residues(c, 0, p, exponent_bound, 5)
    res7 = _residues(a, 0, p, exponent_bound, 7)
    for r in range(exponent_bound + 1):
        if (res5[r] == (0, 0)) != (r % 5 == 4):
            yield (p, r, "5 | t2(p^a) iff a = 4 (mod 5) violated")
        if (res7[r] == (0, 0)) != (r % 7 == 6):
            yield (p, r, "7 | t1(p^a) iff a = 6 (mod 7) violated")
    if spot:
        if not _spot_check(c, 0, p, min(6, exponent_bound), 5):
            yield (p, None, "reduced mod-5 recursion mismatch")
        if not _spot_check(a, 0, p, min(6, exponent_bound), 7):
            yield (p, None, "reduced mod-7 recursion mismatch")


def _periodicity(p: int, spot: bool, a: int, b: int, c: int,
                 l_bound: int) -> Iterator[Witness]:
    """Period-5 / period-7 congruences of prime powers at p = 1 (mod 12).

    With s = +1 when t2(p) = 2 (mod 5) and s = -1 when t2(p) = 3 (mod 5):
    t2(p^(5l+k)) = s * t2(p^(5(l-1)+k)) (mod 5) for l in 1..l_bound and
    offsets k in 0..5.  Analogously mod 7 for t1, with s = +1 when
    t1(p) = 2 (mod 7) and s = -1 when t1(p) = 5 (mod 7).
    """
    v2 = c % 5
    v1 = a % 7
    if v2 not in (2, 3):
        yield (p, 1, f"t2(p) mod 5 = {v2}, no periodicity branch")
        return
    if v1 not in (2, 5):
        yield (p, 1, f"t1(p) mod 7 = {v1}, no periodicity branch")
        return
    res5 = [x for x, _ in _residues(v2, 0, p, 5 * l_bound + 5, 5)]
    res7 = [x for x, _ in _residues(v1, 0, p, 7 * l_bound + 7, 7)]
    s5 = 1 if v2 == 2 else -1
    s7 = 1 if v1 == 2 else -1
    for l in range(1, l_bound + 1):
        for k in range(6):
            if res5[5 * l + k] != (s5 * res5[5 * (l - 1) + k]) % 5:
                yield (p, 5 * l + k, "mod-5 periodicity violated")
        for k in range(8):
            if res7[7 * l + k] != (s7 * res7[7 * (l - 1) + k]) % 7:
                yield (p, 7 * l + k, "mod-7 periodicity violated")


def _difference_nonvanishing(p: int, spot: bool, a: int, b: int, c: int,
                             exponent_bound: int) -> Iterator[Witness]:
    """Nonvanishing of t1(p^r) - t2(p^r) in full precision.

    For p = 1 (mod 12): the difference is nonzero for all 1 <= r <=
    exponent_bound; additionally t1(p) = 2a0 and t2(p) = 2b0 with a0, b0
    odd, and t1(p^2) - t2(p^2) = 4(a0^2 - b0^2) exactly.  For p = 5 and
    p = 7 (mod 12) the difference is checked at even exponents, where
    both values must be rational integers.  One stream of exact values,
    read from the t1(p) and t2(p) handed in, serves every class.
    """
    split = p % 12 == 1
    if split:
        if a % 2 != 0 or (a // 2) % 2 != 1:
            yield (p, 1, "t1(p) is not twice an odd integer")
        if c % 2 != 0 or (c // 2) % 2 != 1:
            yield (p, 1, "t2(p) is not twice an odd integer")
        a0, b0 = a // 2, c // 2
    powers = islice(t_prime_powers(p, a, b, c), max(2, exponent_bound) + 1)
    for r, (ta, tb, tc) in enumerate(powers):
        if split and r == 2 and ta - tc != 4 * (a0 * a0 - b0 * b0):
            yield (p, 2, "t1(p^2) - t2(p^2) != 4(a0^2 - b0^2)")
        if r == 0 or r > exponent_bound or (r % 2 and not split):
            continue
        if tb != 0 and r % 2 == 0:
            yield (p, r, "t1(p^a) not rational at even a")
        if ta == tc:
            yield (p, r, "t1(p^a) = t2(p^a)")


# (claims, prop_id, residue classes mod 12) of each verifier, in run_all's order
_VERIFIERS: tuple[tuple[Claims, str, tuple[int, ...]], ...] = (
    (_t2_at_5_mod_12, "t2-divisibility-5mod12", (5,)),
    (_t1_at_7_mod_12, "t1-divisibility-7mod12", (7,)),
    (_split_at_1_mod_12, "divisibility-1mod12", (1,)),
    (_periodicity, "periodicity-1mod12", (1,)),
    (_difference_nonvanishing, "t1-t2-difference-nonvanishing", (1, 5, 7)),
)


def run_all(
    prime_bound: int = DEFAULT_PRIME_BOUND,
    exponent_bound: int = DEFAULT_EXPONENT_BOUND,
    l_bound: int = DEFAULT_L_BOUND,
) -> list[PropReport]:
    """Every verifier in one pass over the primes below prime_bound, one report each.

    The reports come in _VERIFIERS' order; periodicity takes l_bound and
    the other verifiers take exponent_bound.  The primes come from the
    sieve, so their values are read straight from the trusted core
    hecke._prime_values, once per prime of classes 1, 5 and 7 (mod 12), and
    handed as the triple (a, b, c) to claims(p, spot, a, b, c, bound) of each
    verifier whose classes contain p mod 12; spot is set for that verifier's first
    _SPOT_CHECKS primes.  Bounds whose estimated work passes WORK_BUDGET
    raise BudgetError before any prime is read.
    """
    if prime_bound < MIN_PRIME_BOUND:
        raise ValueError(f"prime_bound must be >= {MIN_PRIME_BOUND}, got {prime_bound}")
    if exponent_bound < 0 or l_bound < 0:
        raise ValueError(f"bounds must be >= 0, got {exponent_bound} and {l_bound}")
    work = max(prime_bound, 10_000) * (1000 + exponent_bound**2 + 30 * l_bound)
    if work > WORK_BUDGET:
        raise BudgetError(f"run_all({prime_bound}, {exponent_bound}, {l_bound}) needs about "
                          f"{work} work units, budget is {WORK_BUDGET}")
    bounds = [l_bound if claims is _periodicity else exponent_bound
              for claims, _, _ in _VERIFIERS]
    failures: list[list[Witness]] = [[] for _ in _VERIFIERS]
    checked = [0] * len(_VERIFIERS)
    for p in _primes(prime_bound):
        r = p % 12
        if r not in (1, 5, 7):
            continue
        a, b, c = _prime_values(p)
        for i, (claims, _, classes) in enumerate(_VERIFIERS):
            if r in classes:
                failures[i].extend(claims(p, checked[i] < _SPOT_CHECKS, a, b, c, bounds[i]))
                checked[i] += 1
    return [PropReport(prop_id, prime_bound, bounds[i], checked[i], tuple(failures[i]))
            for i, (_, prop_id, _) in enumerate(_VERIFIERS)]
