"""Batch verification of divisibility, periodicity, and nonvanishing claims.

Each verifier states its claims about one prime as a generator of
witness tuples (prime, exponent, detail); one table, _VERIFIERS, gives each
its prop id and residue classes mod 12, and run_all checks the primes of
those classes below a configurable bound.  The result is a PropReport whose
failure list must be empty on a correct build.  Any entry is a red-flag
output carrying the full witness.  run_all makes one pass over the
primes of arith._primes, a segmented sieve whose memory does not grow
with the bound: t1(p) and t2(p) are read once per prime from the trusted
core hecke._prime_values, with no second primality test, and handed to
every verifier whose classes contain p; each report keeps its own count,
spot checks and failures in prime order.

Divisibility and periodicity claims read _residues, the Hecke recursion
reduced mod 5 or mod 7 over pairs (a, b) for a + b*sqrt(-3).  Such a
sequence depends on p only through (t(p) mod q, chi*p^12 mod q), so it is
computed once per residue state and shared by every prime in that state;
for the first primes of every class it is spot-checked against the exact
hecke.t_prime_powers to keep the reduced path honest.  At p = 5 and p = 7
(mod 12) those primes are also checked against the independent q-series
oracle, which pins the sign conventions that the mod-5 / mod-7 claims
cannot see.  The difference claims read one exact t_prime_powers stream
of t1 and t2 per prime, two entries held at a time, with no reduction.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .arith import _primes
from .errors import BudgetError
from .hecke import P26_DENOMINATOR, AlgInt3, _prime_values, t_prime_powers
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
# claims(p, spot, t1(p), t2(p), bound) yields the witnesses of the claims
# that fail at p
Claims = Callable[[int, bool, AlgInt3, int, int], Iterator[Witness]]


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


def _pair(v: int | AlgInt3, q: int) -> tuple[int, int]:
    """(a mod q, b mod q) for v = a + b*sqrt(-3); an int v is v + 0*sqrt(-3)."""
    return (v.a % q, v.b % q) if isinstance(v, AlgInt3) else (v % q, 0)


@lru_cache(maxsize=None)
def _reduced(ta: int, tb: int, step: int, alpha_max: int, q: int
             ) -> tuple[tuple[int, int], ...]:
    """The recursion mod q from t(p) = ta + tb*sqrt(-3) and chi*p^12 = step."""
    out = [(1, 0), (ta, tb)]
    for _ in range(alpha_max - 1):
        (a1, b1), (a2, b2) = out[-1], out[-2]
        out.append((
            (ta * a1 - 3 * tb * b1 - step * a2) % q,
            (ta * b1 + tb * a1 - step * b2) % q,
        ))
    return tuple(out[: alpha_max + 1])


def _residues(t_p: int | AlgInt3, p: int, alpha_max: int, q: int
              ) -> list[tuple[int, int]]:
    """_pair(t(p^alpha), q) for alpha = 0..alpha_max, by the recursion mod q.

    The sequence depends on p only through its residue state, so it is
    computed once per state; each call gets a fresh list to edit.
    """
    step = (pow(p, 12, q) if p % 4 == 1 else -pow(p, 12, q)) % q
    return list(_reduced(*_pair(t_p, q), step, alpha_max, q))


def _spot_check(t_p: int | AlgInt3, p: int, alpha_max: int, q: int) -> bool:
    """The reduced recursion against the exact one, mod q."""
    t = t_p if isinstance(t_p, AlgInt3) else AlgInt3(t_p, 0)
    exact = islice(t_prime_powers(p, t.a, t.b, 0), alpha_max + 1)
    return _residues(t, p, alpha_max, q) == [(a % q, b % q) for a, b, _ in exact]


def _t2_at_5_mod_12(p: int, spot: bool, t1: AlgInt3, v: int,
                    exponent_bound: int) -> Iterator[Witness]:
    """Divisibility of t2 at primes p = 5 (mod 12).

    Claims checked per prime: 5 divides t2(p) except at p = 5; 5 never
    divides t2(p^(2a)) for 1 <= a <= exponent_bound; t2(p) mod 7 lies in
    {0, 2, 5}; and 7 | t2(p) exactly when p = 1, 2 or 4 (mod 7).  The
    first _SPOT_CHECKS primes must also satisfy t2(p) = -792 p26(n) with
    12n + 13 = 5p, from the series oracle.
    """
    if p == 5:
        if v % 5 == 0:
            yield (p, 1, "expected 5 to not divide t2(5)")
    elif v % 5 != 0:
        yield (p, 1, "expected 5 | t2(p)")
    if v % 7 not in (0, 2, 5):
        yield (p, 1, f"t2(p) mod 7 = {v % 7}, not in {{0,2,5}}")
    if (v % 7 == 0) != (p % 7 in (1, 2, 4)):
        yield (p, 1, "7 | t2(p) iff p = 1,2,4 (mod 7) violated")
    res5 = _residues(v, p, 2 * exponent_bound, 5)
    for a in range(1, exponent_bound + 1):
        if res5[2 * a] == (0, 0):
            yield (p, 2 * a, "expected 5 to not divide t2(p^(2a))")
    if spot:
        if not _spot_check(v, p, min(6, 2 * exponent_bound), 5):
            yield (p, None, "reduced mod-5 recursion mismatch")
        if v != _T2_ORACLE_FACTOR * p26_oracle((5 * p - 13) // 12):
            yield (p, 1, "t2(p) != -792 * p26((5p - 13)/12)")


def _t1_at_7_mod_12(p: int, spot: bool, t: AlgInt3, t2: int,
                    exponent_bound: int) -> Iterator[Witness]:
    """Divisibility of t1 at primes p = 7 (mod 12).

    t1(p) = h * sqrt(-3); checks 5 | h always, 7 | h exactly when
    p != 7, and that neither 5 nor 7 divides t1(p^(2a)) for
    1 <= a <= exponent_bound.  The first _SPOT_CHECKS primes must also
    satisfy 617760 h = 32617728 p26(n) with 12n + 13 = 7p, from the
    series oracle.
    """
    if t.a != 0:
        yield (p, 1, "t1(p) should be a pure sqrt(-3) multiple")
    if spot:
        for q in (5, 7):
            if not _spot_check(t, p, min(6, 2 * exponent_bound), q):
                yield (p, None, f"reduced mod-{q} recursion mismatch")
        oracle = P26_DENOMINATOR * p26_oracle((7 * p - 13) // 12)
        if _T1_ORACLE_FACTOR * t.b != oracle:
            yield (p, 1, "617760 * t1(p)/sqrt(-3) != 32617728 * p26((7p - 13)/12)")
    if t.b % 5 != 0:
        yield (p, 1, "expected 5 | t1(p)/sqrt(-3)")
    if (t.b % 7 == 0) == (p == 7):
        yield (p, 1, "7 | t1(p)/sqrt(-3) iff p != 7 violated")
    for q in (5, 7):
        res = _residues(t, p, 2 * exponent_bound, q)
        for a in range(1, exponent_bound + 1):
            ra, rb = res[2 * a]
            if rb != 0:
                yield (p, 2 * a, f"t1(p^(2a)) mod {q} not rational")
            if ra == 0:
                yield (p, 2 * a, f"expected {q} to not divide t1(p^(2a))")


def _split_at_1_mod_12(p: int, spot: bool, v1: AlgInt3, v2: int,
                       exponent_bound: int) -> Iterator[Witness]:
    """Residue membership and exponent criteria at primes p = 1 (mod 12).

    Checks t2(p) mod 5 in {2, 3}, t2(p) mod 7 in {0, 2, 5}, t1(p) mod 7
    in {2, 5}, t1(p) mod 5 in {2, 3}, and the two exponent criteria:
    5 divides t2(p^a) exactly when a = 4 (mod 5), and 7 divides t1(p^a)
    exactly when a = 6 (mod 7).  exponent_bound >= 14 crosses both
    periods at least twice.
    """
    if v1.b != 0:
        yield (p, 1, "t1(p) should be rational at p = 1 (mod 12)")
    if v2 % 5 not in (2, 3):
        yield (p, 1, f"t2(p) mod 5 = {v2 % 5}, not in {{2,3}}")
    if v2 % 7 not in (0, 2, 5):
        yield (p, 1, f"t2(p) mod 7 = {v2 % 7}, not in {{0,2,5}}")
    if v1.a % 7 not in (2, 5):
        yield (p, 1, f"t1(p) mod 7 = {v1.a % 7}, not in {{2,5}}")
    if v1.a % 5 not in (2, 3):
        yield (p, 1, f"t1(p) mod 5 = {v1.a % 5}, not in {{2,3}}")
    res5 = _residues(v2, p, exponent_bound, 5)
    res7 = _residues(v1.a, p, exponent_bound, 7)
    for a in range(exponent_bound + 1):
        if (res5[a] == (0, 0)) != (a % 5 == 4):
            yield (p, a, "5 | t2(p^a) iff a = 4 (mod 5) violated")
        if (res7[a] == (0, 0)) != (a % 7 == 6):
            yield (p, a, "7 | t1(p^a) iff a = 6 (mod 7) violated")
    if spot:
        if not _spot_check(v2, p, min(6, exponent_bound), 5):
            yield (p, None, "reduced mod-5 recursion mismatch")
        if not _spot_check(v1.a, p, min(6, exponent_bound), 7):
            yield (p, None, "reduced mod-7 recursion mismatch")


def _periodicity(p: int, spot: bool, t1: AlgInt3, t2: int,
                 l_bound: int) -> Iterator[Witness]:
    """Period-5 / period-7 congruences of prime powers at p = 1 (mod 12).

    With s = +1 when t2(p) = 2 (mod 5) and s = -1 when t2(p) = 3 (mod 5):
    t2(p^(5l+k)) = s * t2(p^(5(l-1)+k)) (mod 5) for l in 1..l_bound and
    offsets k in 0..5.  Analogously mod 7 for t1, with s = +1 when
    t1(p) = 2 (mod 7) and s = -1 when t1(p) = 5 (mod 7).
    """
    v2 = t2 % 5
    v1 = t1.a % 7
    if v2 not in (2, 3):
        yield (p, 1, f"t2(p) mod 5 = {v2}, no periodicity branch")
        return
    if v1 not in (2, 5):
        yield (p, 1, f"t1(p) mod 7 = {v1}, no periodicity branch")
        return
    res5 = [a for a, _ in _residues(v2, p, 5 * l_bound + 5, 5)]
    res7 = [a for a, _ in _residues(v1, p, 7 * l_bound + 7, 7)]
    s5 = 1 if v2 == 2 else -1
    s7 = 1 if v1 == 2 else -1
    for l in range(1, l_bound + 1):
        for k in range(6):
            if res5[5 * l + k] != (s5 * res5[5 * (l - 1) + k]) % 5:
                yield (p, 5 * l + k, "mod-5 periodicity violated")
        for k in range(8):
            if res7[7 * l + k] != (s7 * res7[7 * (l - 1) + k]) % 7:
                yield (p, 7 * l + k, "mod-7 periodicity violated")


def _difference_nonvanishing(p: int, spot: bool, t1: AlgInt3, t2: int,
                             exponent_bound: int) -> Iterator[Witness]:
    """Nonvanishing of t1(p^a) - t2(p^a) in full precision.

    For p = 1 (mod 12): the difference is nonzero for all 1 <= a <=
    exponent_bound; additionally t1(p) = 2a0 and t2(p) = 2b0 with a0, b0
    odd, and t1(p^2) - t2(p^2) = 4(a0^2 - b0^2) exactly.  For p = 5 and
    p = 7 (mod 12) the difference is checked at even exponents, where
    both values must be rational integers.  One stream of exact values,
    read from the t1(p) and t2(p) handed in, serves every class.
    """
    split = p % 12 == 1
    if split:
        if t1.a % 2 != 0 or (t1.a // 2) % 2 != 1:
            yield (p, 1, "t1(p) is not twice an odd integer")
        if t2 % 2 != 0 or (t2 // 2) % 2 != 1:
            yield (p, 1, "t2(p) is not twice an odd integer")
        a0, b0 = t1.a // 2, t2 // 2
    powers = islice(t_prime_powers(p, t1.a, t1.b, t2), max(2, exponent_bound) + 1)
    for a, (ta, tb, tc) in enumerate(powers):
        if split and a == 2 and ta - tc != 4 * (a0 * a0 - b0 * b0):
            yield (p, 2, "t1(p^2) - t2(p^2) != 4(a0^2 - b0^2)")
        if a == 0 or a > exponent_bound or (a % 2 and not split):
            continue
        if tb != 0 and a % 2 == 0:
            yield (p, a, "t1(p^a) not rational at even a")
        if ta == tc:
            yield (p, a, "t1(p^a) = t2(p^a)")


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
    handed as t1(p), t2(p) to claims(p, spot, t1, t2, bound) of each verifier
    whose classes contain p mod 12; spot is set for that verifier's first
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
        a, b, t2 = _prime_values(p)
        t1 = AlgInt3(a, b)
        for i, (claims, _, classes) in enumerate(_VERIFIERS):
            if r in classes:
                failures[i].extend(claims(p, checked[i] < _SPOT_CHECKS, t1, t2, bounds[i]))
                checked[i] += 1
    return [PropReport(prop_id, prime_bound, bounds[i], checked[i], tuple(failures[i]))
            for i, (_, prop_id, _) in enumerate(_VERIFIERS)]
