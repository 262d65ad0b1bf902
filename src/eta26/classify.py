"""Vanishing/nonvanishing classification of p26(n) from the factorization of 12n + 13.

Two sufficient conditions force p26(n) = 0:

  cond I  : some prime = 3 (mod 4) divides m = 12n + 13 to an odd power,
            and some prime = 2 (mod 3) does too; as m is prime to 6, these
            are the classes {7, 11} and {5, 11} mod 12, so cond I says that
            the classes of the primes dividing m to an odd power meet both;
  cond II : m is a perfect square all of whose prime factors are
            = 11 (mod 12).

Five further hypotheses force p26(n) != 0 (names used in reports):

  prime-power          : m = p^alpha with p != 11 (mod 12);
  odd-exp-5-mod-12     : every prime = 3 (mod 4) divides m to an even
                         power, and some prime = 5 (mod 12) to an odd one;
  25-with-even-shape   : every prime = 5, 7, 11 (mod 12) divides m to an
                         even power, 25 | m, and no prime = 1 (mod 12)
                         has exponent = 4 (mod 5);
  49-with-even-shape   : same shape, 49 | m, and no prime = 1 (mod 12)
                         has exponent = 6 (mod 7);
  odd-exp-7-mod-12     : every prime = 2 (mod 3) divides m to an even
                         power, and some prime = 7 (mod 12) to an odd one.

The classifier never predicts outside these hypotheses; a computed zero
not covered by cond I / cond II would contradict the expected converse
and is counted by RangeStream, never suppressed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from . import hecke
from .arith import Factorization, factor_progression
from .errors import ConsistencyError

PREDICT_ZERO = "zero"
PREDICT_NONZERO = "nonzero"
PREDICT_NONE = "no-prediction"

# Families p26(mult*n + offset): mult = q^2 -> q, the gate's modulus; with
# offset = (mult - 13) // 12, 12(mult*n + offset) + 13 = mult * (12n + 1).
FAMILIES = {25: 5, 49: 7}


@dataclass(frozen=True)
class ConditionProfile:
    """All condition flags for one n, derived from the factorization of 12n + 13."""

    n: int
    m: int
    factorization: Factorization
    cond_i: bool
    cond_ii: bool
    n1: bool
    n2: bool
    prime_power: bool
    odd_exp_5: bool
    div_25: bool
    div_49: bool
    odd_exp_7: bool


@dataclass(frozen=True)
class VanishingReport:
    """Computed value, applicable conditions, and their reconciliation.

    consistent is False only when an applicable condition contradicts
    the computed value, which must never happen; such a report is a
    red-flag output and the CLI turns it into exit status 2.
    """

    profile: ConditionProfile
    p26_value: int
    predicted: str
    explanation: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        """The prediction, if any, matches whether p26_value is zero."""
        return self.predicted == PREDICT_NONE or (
            (self.p26_value == 0) == (self.predicted == PREDICT_ZERO))


def _exponent_gate(fac: Factorization, q: int) -> bool:
    """No prime = 1 (mod 12) divides fac to a power = -1 (mod q)."""
    return all(e % q != q - 1 for p, e in fac if p % 12 == 1)


def _profile(n: int, fac: Factorization) -> ConditionProfile:
    # classes mod 12, which fix those mod 4 and mod 3 as m is prime to 6
    classes = {p % 12 for p, _ in fac}
    odd = {p % 12 for p, e in fac if e % 2}
    witness = bool(classes - {11})
    even_shape = not odd & {5, 7, 11}
    prof = ConditionProfile(
        n=n, m=fac.value, factorization=fac,
        cond_i=bool(odd & {7, 11} and odd & {5, 11}),
        cond_ii=not odd and classes == {11},
        n1=witness and not odd & {7, 11},
        n2=witness and not odd & {5, 11},
        prime_power=len(fac.factors) == 1 and witness,
        odd_exp_5=5 in odd and not odd & {7, 11},
        div_25=even_shape and fac.value % 25 == 0 and _exponent_gate(fac, 5),
        div_49=even_shape and fac.value % 49 == 0 and _exponent_gate(fac, 7),
        odd_exp_7=7 in odd and not odd & {5, 11},
    )
    # logically impossible combinations; a violation means the flag
    # computation itself is broken
    if prof.cond_i and (prof.n1 or prof.n2):
        raise ConsistencyError(f"cond I with N1/N2 at n={n}")
    return prof


def _evaluate(n: int, fac: Factorization | None) -> tuple[ConditionProfile, int]:
    """Profile and p26(n), both from one factorization of 12n + 13 (fac, if given)."""
    if n < 0:
        raise ValueError(f"expected n >= 0, got {n}")
    bundle = hecke.coeff_bundle(12 * n + 13, fac)
    return _profile(n, bundle.factorization), bundle.p26


_ZERO_RULES = (("cond-I", "cond_i"), ("cond-II", "cond_ii"))
_NONZERO_RULES = (
    ("prime-power", "prime_power"),
    ("odd-exp-5-mod-12", "odd_exp_5"),
    ("25-with-even-shape", "div_25"),
    ("49-with-even-shape", "div_49"),
    ("odd-exp-7-mod-12", "odd_exp_7"),
)


def apply_theorems(n: int, fac: Factorization | None = None) -> VanishingReport:
    """Predict zero/nonzero where a condition applies and reconcile with p26_cm.

    fac, if given, is the factorization of 12n + 13.
    """
    prof, value = _evaluate(n, fac)
    zero_hits = tuple(name for name, attr in _ZERO_RULES if getattr(prof, attr))
    nonzero_hits = tuple(name for name, attr in _NONZERO_RULES if getattr(prof, attr))
    if zero_hits and nonzero_hits:
        raise ConsistencyError(
            f"contradictory predictions at n={n}: {zero_hits} vs {nonzero_hits}"
        )
    predicted = (PREDICT_ZERO if zero_hits
                 else PREDICT_NONZERO if nonzero_hits else PREDICT_NONE)
    return VanishingReport(prof, value, predicted, zero_hits + nonzero_hits)


def check_family(mult: int, n: int, fac: Factorization | None = None) -> VanishingReport:
    """Vanishing biconditional for p26(mult*n + offset), gated on 12n + 1.

    mult is a key of FAMILIES: 25 (offset 1, q = 5) or 49 (offset 3,
    q = 7).  Applicable when no prime = 1 (mod 12) divides 12n + 1 to a
    power = -1 (mod q); then p26(mult*n + offset) = 0 exactly when
    12n + 1 satisfies cond I.  Outside the gate there is no prediction.
    The gate and cond I are read off the one factorization of
    m = 12(mult*n + offset) + 13 = q^2 (12n + 1), so mt-check factors each
    index once: as q != 1 (mod 12), m has the primes = 1 (mod 12) of
    12n + 1 with the same exponents, and every exponent keeps its parity.
    fac, if given, is the factorization of that m.
    """
    if mult not in FAMILIES:
        raise ValueError(f"unknown family {mult}; expected one of {list(FAMILIES)}")
    if n < 0:
        raise ValueError("check_family expects n >= 0")
    q, offset = FAMILIES[mult], (mult - 13) // 12
    prof, value = _evaluate(mult * n + offset, fac)
    if not _exponent_gate(prof.factorization, q):
        return VanishingReport(prof, value, PREDICT_NONE, (f"mod-{q}-exponent-gate-failed",))
    predicted = PREDICT_ZERO if prof.cond_i else PREDICT_NONZERO
    return VanishingReport(prof, value, predicted, (f"iff-{mult}n-plus-{offset}",))


class RangeStream:
    """apply_theorems(n), or check_family(family, n), for n in [start, end], counted as read.

    Each report is handed its factorization from one arith.factor_progression
    over the range: of 12n + 13, or of 12 * mult * n + mult for the family
    mult, a key of FAMILIES.  Each read starts the counters afresh, so after
    a read they summarize it with no second pass.  A zero is explained when
    its report predicts zero; an unexplained zero would be a counterexample
    to the expected converse.  The index lists hold each report's profile.n.
    """

    def __init__(self, start: int, end: int, family: int | None = None) -> None:
        if start < 0 or end < start:
            raise ValueError(f"RangeStream expects 0 <= start <= end, got [{start}, {end}]")
        if family is not None and family not in FAMILIES:
            raise ValueError(f"unknown family {family}; expected one of {list(FAMILIES)}")
        self.start, self.end, self.family = start, end, family
        self.zero_count = self.explained = self.gated = 0
        self.unexplained: list[int] = []
        self.inconsistent: list[int] = []

    def __iter__(self) -> Iterator[VanishingReport]:
        self.zero_count = self.explained = self.gated = 0
        self.unexplained, self.inconsistent = [], []
        mult = self.family  # a family's m = 12(mult * n + (mult - 13) // 12) + 13
        evaluate = apply_theorems if mult is None else functools.partial(check_family, mult)
        step, offset = (12, 13) if mult is None else (12 * mult, mult)
        facs = factor_progression(step, offset, self.start, self.end)
        for report in map(evaluate, range(self.start, self.end + 1), facs):
            prof = report.profile
            self.gated += report.predicted != PREDICT_NONE
            if report.p26_value == 0:
                self.zero_count += 1
                if report.predicted == PREDICT_ZERO:
                    self.explained += 1
                else:
                    self.unexplained.append(prof.n)
            if not report.consistent:
                self.inconsistent.append(prof.n)
            yield report
