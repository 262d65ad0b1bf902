"""Batch verification of divisibility, periodicity, and nonvanishing claims.

Each verifier sweeps a residue class of primes up to a configurable
bound and returns a PropReport whose failure list must be empty on a
correct build; any entry is a red-flag output carrying the full witness
tuple (prime, exponent, detail).

Divisibility and periodicity checks run a mod-5 / mod-7 reduction of the
prime-power recursion (constant-size state) so the bounds can scale; the
first primes of every class are spot-checked against the full-precision
recursion to keep the reduced path honest.  At p = 5 and p = 7 (mod 12)
those primes are also checked against the independent q-series oracle,
which pins the sign conventions that the mod-5 / mod-7 claims cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import primes_below
from .hecke import P26_DENOMINATOR, AlgInt3, t1_prime, t2_prime, t_prime_power
from .series import p26_oracle

DEFAULT_PRIME_BOUND = 10_000
DEFAULT_EXPONENT_BOUND = 14
DEFAULT_L_BOUND = 3

_SPOT_CHECKS = 3  # primes per class compared against full precision

# Oracle identities at m = 12n + 13 = 5p and 7p (criteria 1 and 2 pin
# t2(5) = 20592 and t1(7) = -102960 sqrt(-3)):
#   t2(p) = -792 p26((5p - 13)/12)                  for p = 5 (mod 12)
#   617760 t1(p).b = 32617728 p26((7p - 13)/12)     for p = 7 (mod 12)
# with 617760 = -6 * (-102960).
_T2_ORACLE_FACTOR = -792
_T1_ORACLE_FACTOR = 617760


@dataclass(frozen=True)
class PropReport:
    """Outcome of one verification sweep.

    checked counts the primes examined; failures holds
    (prime, exponent-or-None, detail) witness tuples.
    """

    prop_id: str
    prime_bound: int
    exponent_bound: int
    checked: int
    failures: tuple[tuple[int, int | None, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _residues_int(t_p: int, p: int, alpha_max: int, q: int, chi: int) -> list[int]:
    """t(p^alpha) mod q for alpha = 0..alpha_max, reduced recursion."""
    p12 = pow(p, 12, q)
    out = [1 % q, t_p % q]
    for _ in range(alpha_max - 1):
        out.append((out[-1] * (t_p % q) - chi * p12 * out[-2]) % q)
    return out[: alpha_max + 1]


def _residues_alg(t_p: AlgInt3, p: int, alpha_max: int, q: int, chi: int
                  ) -> list[tuple[int, int]]:
    """Same as _residues_int but over pairs (a, b) mod q for a + b*sqrt(-3)."""
    p12 = pow(p, 12, q)
    ta, tb = t_p.a % q, t_p.b % q
    out = [(1, 0), (ta, tb)]
    for _ in range(alpha_max - 1):
        a1, b1 = out[-1]
        a2, b2 = out[-2]
        out.append((
            (ta * a1 - 3 * tb * b1 - chi * p12 * a2) % q,
            (ta * b1 + tb * a1 - chi * p12 * b2) % q,
        ))
    return out[: alpha_max + 1]


def _spot_check_int(t_p: int, p: int, alpha_max: int, q: int, chi: int) -> bool:
    reduced = _residues_int(t_p, p, alpha_max, q, chi)
    full = [t_prime_power(t_p, p, a, chi) % q for a in range(alpha_max + 1)]
    return reduced == full


def _spot_check_alg(t_p: AlgInt3, p: int, alpha_max: int, q: int, chi: int) -> bool:
    reduced = _residues_alg(t_p, p, alpha_max, q, chi)
    full = [t_prime_power(t_p, p, a, chi) for a in range(alpha_max + 1)]
    return reduced == [(v.a % q, v.b % q) for v in full]


def verify_t2_at_5_mod_12(
    prime_bound: int = DEFAULT_PRIME_BOUND,
    exponent_bound: int = DEFAULT_EXPONENT_BOUND,
) -> PropReport:
    """Divisibility of t2 at primes p = 5 (mod 12).

    Claims checked per prime: 5 divides t2(p) except at p = 5; 5 never
    divides t2(p^(2a)) for 1 <= a <= exponent_bound; t2(p) mod 7 lies in
    {0, 2, 5}; and 7 | t2(p) exactly when p = 1, 2 or 4 (mod 7).  The
    first _SPOT_CHECKS primes must also satisfy t2(p) = -792 p26(n) with
    12n + 13 = 5p, from the series oracle.
    """
    if prime_bound < 5:
        raise ValueError("prime_bound must be >= 5")
    failures: list[tuple[int, int | None, str]] = []
    checked = 0
    spot = 0
    for p in primes_below(prime_bound):
        if p % 12 != 5:
            continue
        checked += 1
        v = t2_prime(p)
        if p == 5:
            if v % 5 == 0:
                failures.append((p, 1, "expected 5 to not divide t2(5)"))
        elif v % 5 != 0:
            failures.append((p, 1, "expected 5 | t2(p)"))
        if v % 7 not in (0, 2, 5):
            failures.append((p, 1, f"t2(p) mod 7 = {v % 7}, not in {{0,2,5}}"))
        if (v % 7 == 0) != (p % 7 in (1, 2, 4)):
            failures.append((p, 1, "7 | t2(p) iff p = 1,2,4 (mod 7) violated"))
        res5 = _residues_int(v, p, 2 * exponent_bound, 5, chi=1)
        for a in range(1, exponent_bound + 1):
            if res5[2 * a] == 0:
                failures.append((p, 2 * a, "expected 5 to not divide t2(p^(2a))"))
        if spot < _SPOT_CHECKS:
            spot += 1
            if not _spot_check_int(v, p, min(6, 2 * exponent_bound), 5, 1):
                failures.append((p, None, "reduced mod-5 recursion mismatch"))
            if v != _T2_ORACLE_FACTOR * p26_oracle((5 * p - 13) // 12):
                failures.append((p, 1, "t2(p) != -792 * p26((5p - 13)/12)"))
    return PropReport("t2-divisibility-5mod12", prime_bound, exponent_bound,
                      checked, tuple(failures))


def verify_t1_at_7_mod_12(
    prime_bound: int = DEFAULT_PRIME_BOUND,
    exponent_bound: int = DEFAULT_EXPONENT_BOUND,
) -> PropReport:
    """Divisibility of t1 at primes p = 7 (mod 12).

    t1(p) = h * sqrt(-3); checks 5 | h always, 7 | h exactly when
    p != 7, and that neither 5 nor 7 divides t1(p^(2a)) for
    1 <= a <= exponent_bound.  The first _SPOT_CHECKS primes must also
    satisfy 617760 h = 32617728 p26(n) with 12n + 13 = 7p, from the
    series oracle.
    """
    if prime_bound < 7:
        raise ValueError("prime_bound must be >= 7")
    failures: list[tuple[int, int | None, str]] = []
    checked = 0
    spot = 0
    for p in primes_below(prime_bound):
        if p % 12 != 7:
            continue
        checked += 1
        t = t1_prime(p)
        if t.a != 0:
            failures.append((p, 1, "t1(p) should be a pure sqrt(-3) multiple"))
        if spot < _SPOT_CHECKS:
            spot += 1
            for q in (5, 7):
                if not _spot_check_alg(t, p, min(6, 2 * exponent_bound), q, -1):
                    failures.append((p, None, f"reduced mod-{q} recursion mismatch"))
            oracle = P26_DENOMINATOR * p26_oracle((7 * p - 13) // 12)
            if _T1_ORACLE_FACTOR * t.b != oracle:
                failures.append(
                    (p, 1, "617760 * t1(p)/sqrt(-3) != 32617728 * p26((7p - 13)/12)")
                )
        if t.b % 5 != 0:
            failures.append((p, 1, "expected 5 | t1(p)/sqrt(-3)"))
        if (t.b % 7 == 0) == (p == 7):
            failures.append((p, 1, "7 | t1(p)/sqrt(-3) iff p != 7 violated"))
        for q in (5, 7):
            res = _residues_alg(t, p, 2 * exponent_bound, q, chi=-1)
            for a in range(1, exponent_bound + 1):
                ra, rb = res[2 * a]
                if rb != 0:
                    failures.append((p, 2 * a, f"t1(p^(2a)) mod {q} not rational"))
                if ra == 0:
                    failures.append(
                        (p, 2 * a, f"expected {q} to not divide t1(p^(2a))")
                    )
    return PropReport("t1-divisibility-7mod12", prime_bound, exponent_bound,
                      checked, tuple(failures))


def verify_split_at_1_mod_12(
    prime_bound: int = DEFAULT_PRIME_BOUND,
    exponent_bound: int = DEFAULT_EXPONENT_BOUND,
) -> PropReport:
    """Residue membership and exponent criteria at primes p = 1 (mod 12).

    Checks t2(p) mod 5 in {2, 3}, t2(p) mod 7 in {0, 2, 5}, t1(p) mod 7
    in {2, 5}, t1(p) mod 5 in {2, 3}, and the two exponent criteria:
    5 divides t2(p^a) exactly when a = 4 (mod 5), and 7 divides t1(p^a)
    exactly when a = 6 (mod 7).  exponent_bound >= 14 crosses both
    periods at least twice.
    """
    if prime_bound < 13:
        raise ValueError("prime_bound must be >= 13")
    failures: list[tuple[int, int | None, str]] = []
    checked = 0
    spot = 0
    for p in primes_below(prime_bound):
        if p % 12 != 1:
            continue
        checked += 1
        v2 = t2_prime(p)
        v1 = t1_prime(p)
        if v1.b != 0:
            failures.append((p, 1, "t1(p) should be rational at p = 1 (mod 12)"))
        if v2 % 5 not in (2, 3):
            failures.append((p, 1, f"t2(p) mod 5 = {v2 % 5}, not in {{2,3}}"))
        if v2 % 7 not in (0, 2, 5):
            failures.append((p, 1, f"t2(p) mod 7 = {v2 % 7}, not in {{0,2,5}}"))
        if v1.a % 7 not in (2, 5):
            failures.append((p, 1, f"t1(p) mod 7 = {v1.a % 7}, not in {{2,5}}"))
        if v1.a % 5 not in (2, 3):
            failures.append((p, 1, f"t1(p) mod 5 = {v1.a % 5}, not in {{2,3}}"))
        res5 = _residues_int(v2, p, exponent_bound, 5, chi=1)
        res7 = _residues_int(v1.a, p, exponent_bound, 7, chi=1)
        for a in range(exponent_bound + 1):
            if (res5[a] == 0) != (a % 5 == 4):
                failures.append((p, a, "5 | t2(p^a) iff a = 4 (mod 5) violated"))
            if (res7[a] == 0) != (a % 7 == 6):
                failures.append((p, a, "7 | t1(p^a) iff a = 6 (mod 7) violated"))
        if spot < _SPOT_CHECKS:
            spot += 1
            if not _spot_check_int(v2, p, min(6, exponent_bound), 5, 1):
                failures.append((p, None, "reduced mod-5 recursion mismatch"))
            if not _spot_check_int(v1.a, p, min(6, exponent_bound), 7, 1):
                failures.append((p, None, "reduced mod-7 recursion mismatch"))
    return PropReport("divisibility-1mod12", prime_bound, exponent_bound,
                      checked, tuple(failures))


def verify_periodicity(
    prime_bound: int = DEFAULT_PRIME_BOUND,
    l_bound: int = DEFAULT_L_BOUND,
) -> PropReport:
    """Period-5 / period-7 congruences of prime powers at p = 1 (mod 12).

    With s = +1 when t2(p) = 2 (mod 5) and s = -1 when t2(p) = 3 (mod 5):
    t2(p^(5l+k)) = s * t2(p^(5(l-1)+k)) (mod 5) for l in 1..l_bound and
    offsets k in 0..5.  Analogously mod 7 for t1, with s = +1 when
    t1(p) = 2 (mod 7) and s = -1 when t1(p) = 5 (mod 7).
    """
    failures: list[tuple[int, int | None, str]] = []
    checked = 0
    for p in primes_below(prime_bound):
        if p % 12 != 1:
            continue
        checked += 1
        v2 = t2_prime(p) % 5
        v1 = t1_prime(p).a % 7
        res5 = _residues_int(v2, p, 5 * l_bound + 5, 5, chi=1)
        res7 = _residues_int(v1, p, 7 * l_bound + 7, 7, chi=1)
        if v2 not in (2, 3):
            failures.append((p, 1, f"t2(p) mod 5 = {v2}, no periodicity branch"))
            continue
        if v1 not in (2, 5):
            failures.append((p, 1, f"t1(p) mod 7 = {v1}, no periodicity branch"))
            continue
        s5 = 1 if v2 == 2 else -1
        s7 = 1 if v1 == 2 else -1
        for l in range(1, l_bound + 1):
            for k in range(6):
                if res5[5 * l + k] != (s5 * res5[5 * (l - 1) + k]) % 5:
                    failures.append((p, 5 * l + k, "mod-5 periodicity violated"))
            for k in range(8):
                if res7[7 * l + k] != (s7 * res7[7 * (l - 1) + k]) % 7:
                    failures.append((p, 7 * l + k, "mod-7 periodicity violated"))
    return PropReport("periodicity-1mod12", prime_bound, l_bound, checked,
                      tuple(failures))


def verify_difference_nonvanishing(
    prime_bound: int = DEFAULT_PRIME_BOUND,
    exponent_bound: int = DEFAULT_EXPONENT_BOUND,
) -> PropReport:
    """Nonvanishing of t1(p^a) - t2(p^a) in full precision.

    For p = 1 (mod 12): the difference is nonzero for all 1 <= a <=
    exponent_bound; additionally t1(p) = 2a0 and t2(p) = 2b0 with a0, b0
    odd, and t1(p^2) - t2(p^2) = 4(a0^2 - b0^2) exactly.  For p = 5 and
    p = 7 (mod 12) the difference is checked at even exponents, where
    both values are rational integers.
    """
    failures: list[tuple[int, int | None, str]] = []
    checked = 0
    for p in primes_below(prime_bound):
        if p % 12 == 11 or p < 5:
            continue
        chi = 1 if p % 4 == 1 else -1
        if p % 12 == 1:
            checked += 1
            v1 = t1_prime(p).a
            v2 = t2_prime(p)
            if v1 % 2 != 0 or (v1 // 2) % 2 != 1:
                failures.append((p, 1, "t1(p) is not twice an odd integer"))
            if v2 % 2 != 0 or (v2 // 2) % 2 != 1:
                failures.append((p, 1, "t2(p) is not twice an odd integer"))
            a0, b0 = v1 // 2, v2 // 2
            d2 = (t_prime_power(v1, p, 2, chi) - t_prime_power(v2, p, 2, chi))
            if d2 != 4 * (a0 * a0 - b0 * b0):
                failures.append((p, 2, "t1(p^2) - t2(p^2) != 4(a0^2 - b0^2)"))
            for a in range(1, exponent_bound + 1):
                if t_prime_power(v1, p, a, chi) == t_prime_power(v2, p, a, chi):
                    failures.append((p, a, "t1(p^a) = t2(p^a)"))
        elif p % 12 == 5:
            checked += 1
            v2 = t2_prime(p)
            for a in range(2, exponent_bound + 1, 2):
                t1v = t_prime_power(0, p, a, chi)
                if t1v == t_prime_power(v2, p, a, chi):
                    failures.append((p, a, "t1(p^a) = t2(p^a)"))
        else:  # p = 7 (mod 12)
            checked += 1
            t1p = t1_prime(p)
            for a in range(2, exponent_bound + 1, 2):
                t1v = t_prime_power(t1p, p, a, chi)
                if t1v.b != 0:
                    failures.append((p, a, "t1(p^a) not rational at even a"))
                if t1v.a == t_prime_power(0, p, a, chi):
                    failures.append((p, a, "t1(p^a) = t2(p^a)"))
    return PropReport("t1-t2-difference-nonvanishing", prime_bound,
                      exponent_bound, checked, tuple(failures))


def run_all(
    prime_bound: int = DEFAULT_PRIME_BOUND,
    exponent_bound: int = DEFAULT_EXPONENT_BOUND,
    l_bound: int = DEFAULT_L_BOUND,
) -> list[PropReport]:
    """Run every verifier at the given bounds, in a fixed order."""
    return [
        verify_t2_at_5_mod_12(prime_bound, exponent_bound),
        verify_t1_at_7_mod_12(prime_bound, exponent_bound),
        verify_split_at_1_mod_12(prime_bound, exponent_bound),
        verify_periodicity(prime_bound, l_bound),
        verify_difference_nonvanishing(prime_bound, exponent_bound),
    ]


def report_record(report: PropReport) -> dict:
    """JSON-ready record for one PropReport."""
    return {
        "prop_id": report.prop_id,
        "bounds": {
            "prime_bound": report.prime_bound,
            "exponent_bound": report.exponent_bound,
        },
        "checked": report.checked,
        "failures": [[p, a, detail] for p, a, detail in report.failures],
    }
