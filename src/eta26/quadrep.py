"""Normalized solutions of p = x^2 + y^2 and p = z^2 + 3w^2.

The degree-12 coefficient formulas downstream are sensitive to the signs
of the representation, so each prime gets one canonical representative.
The congruence conventions are:

p = x^2 + y^2  (x odd, y even; exists iff p = 1 mod 4):
  * p = 5 mod 12 : 3 divides neither coordinate; pin x = 1 (mod 3) and
    y = 2 (mod 3).  Both signs are forced.
  * p = 1 mod 12 : exactly one coordinate is divisible by 3;
    sign_plus is true iff it is y.  The coordinate not divisible by 3
    is pinned to = 1 (mod 3); the other one is even in the downstream
    form, so it is taken nonnegative.

p = z^2 + 3w^2  (exists iff p = 1 mod 3):
  * p = 7 mod 12 : z even, w odd (forced by p = 3 mod 4); pin
    z = 1 (mod 3), then pin w by z + w = 1 (mod 4).
  * p = 1 mod 12 : z odd, w even (forced); pin z = 1 (mod 3); w only
    enters through even powers, so it is taken nonnegative.
    sign_plus is true iff z + w = 1 (mod 4) -- well defined because w
    is even, so z + w = z - w (mod 4).

For p = 1 mod 12 the two sign_plus bits always agree; hecke reads each
representation's own bit, and the test suite sweeps the agreement.

Algorithm: Cornacchia (1908; Cohen, A Course in Computational Algebraic
Number Theory, Alg. 1.5.2).  r = sqrt(-d) mod p comes from a root of
unity: r = z^((p-1)/4) for the first quadratic nonresidue z when d = 1,
and r = 2 omega + 1 with omega = z^((p-1)/3) for the first z that is not
a cube when d = 3.  The Euclidean algorithm on (p, r) stops at the first
remainder b <= sqrt(p), and (p - b^2)/d must be an exact square.  The
solution is unique up to signs (and order, for d = 1), so the
normalization above does not depend on which root was found.  Each
candidate z costs O(log p) modular multiplications and Euclid O(log p)
steps.  The search is capped at Bach's bound 2 (ln p)^2: under GRH every
proper subgroup of (Z/p)^*, the squares and the cubes included, misses
some z below it.  A candidate counts only if r^2 = -d (mod p) exactly.
Past the cap, or if no representation comes out for a certified prime,
ConsistencyError is raised; no loop here grows faster than
polylogarithmically in p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError


@dataclass(frozen=True)
class GaussRep:
    """Canonical x, y with x^2 + y^2 = p, x odd, y even."""

    p: int
    x: int
    y: int
    sign_plus: bool

    def __post_init__(self) -> None:
        if self.x * self.x + self.y * self.y != self.p:
            raise ValueError("x^2 + y^2 != p")
        if self.x % 2 == 0 or self.y % 2 != 0:
            raise ValueError("need x odd, y even")


@dataclass(frozen=True)
class EisRep:
    """Canonical z, w with z^2 + 3w^2 = p."""

    p: int
    z: int
    w: int
    sign_plus: bool

    def __post_init__(self) -> None:
        if self.z * self.z + 3 * self.w * self.w != self.p:
            raise ValueError("z^2 + 3w^2 != p")


def _cornacchia(d: int, p: int) -> tuple[int, int]:
    """Nonnegative u, v with u^2 + d*v^2 = p, for d in (1, 3) and prime p.

    For d = 1 the pair is ordered so that u is odd.
    """
    # r = sqrt(-d) mod p: a 4th root of unity for d = 1; for d = 3, 2 omega + 1
    # with omega a primitive cube root of 1, as (2 omega + 1)^2 = -3
    k, kind = (4, "quadratic") if d == 1 else (3, "cubic")
    for z in range(2, int(2 * math.log(p) ** 2) + 1):
        root = pow(z, (p - 1) // k, p)
        r = root if d == 1 else (2 * root + 1) % p
        if r * r % p == p - d:
            break
    else:
        raise ConsistencyError(f"no {kind} nonresidue mod {p} below the cap")
    # Euclid on (p, r) down to the first remainder <= sqrt(p)
    a, b = p, r
    bound = math.isqrt(p)
    while b > bound:
        a, b = b, a % b
    v2, rem = divmod(p - b * b, d)
    v = math.isqrt(v2)
    if rem != 0 or v * v != v2:
        raise ConsistencyError(f"Cornacchia found no u^2 + {d}v^2 = {p}")
    if d == 1 and b % 2 == 0:
        return v, b
    return b, v


def _gauss_rep(p: int) -> GaussRep:
    """Normalized p = x^2 + y^2 for a prime p = 1 mod 4; p is not certified here."""
    x, y = _cornacchia(1, p)
    if p % 12 == 5:
        if x % 3 != 1:
            x = -x
        if y % 3 != 2:
            y = -y
        return GaussRep(p, x, y, True)
    # p = 1 mod 12: exactly one coordinate is divisible by 3
    if y % 3 == 0:
        if x % 3 != 1:
            x = -x
        return GaussRep(p, x, abs(y), True)
    if y % 3 != 1:
        y = -y
    return GaussRep(p, abs(x), y, False)


def _eis_rep(p: int) -> EisRep:
    """Normalized p = z^2 + 3w^2 for a prime p = 1 mod 3; p is not certified here."""
    z, w = _cornacchia(3, p)
    if z % 3 != 1:
        z = -z
    if p % 12 == 7:
        # z even, w odd is forced; orient w against z
        if (z + w) % 4 != 1:
            w = -w
        return EisRep(p, z, w, True)
    w = abs(w)
    return EisRep(p, z, w, (z + w) % 4 == 1)
