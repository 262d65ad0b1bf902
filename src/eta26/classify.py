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

An index is read off one factorization of 12n + 13: p26 by hecke.p26_cm,
the rest from one cached entry per class state, which one walk over its
primes gathers.  FAMILIES is the one anchor table: the families of
check_family, and the ell of the rules ell^2-with-even-shape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from . import hecke
from .arith import Factorization, factor_progression, factorize
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


# one bit per class mod 12 of a prime dividing m; m is prime to 6, so the
# class fixes those mod 4 and mod 3
_C5, _C7, _C11 = 1 << 5, 1 << 7, 1 << 11
# one bit per anchor q of FAMILIES, in its order
_ANCHOR_BITS = {q: 1 << i for i, q in enumerate(FAMILIES.values())}

_ZERO_RULES = ("cond-I", "cond-II")
_NONZERO_RULES = ("prime-power", "odd-exp-5-mod-12",
                  *(f"{mult}-with-even-shape" for mult in FAMILIES), "odd-exp-7-mod-12")


def _class_state(fac: Factorization) -> tuple[bool, int, int, int]:
    """(one prime, classes, odd, anchored) of m = fac.value, from one walk over its primes.

    classes and odd: the classes mod 12 of all primes of m, and of those to an
    odd power.  anchored: bit _ANCHOR_BITS[q] when q | m and no prime = 1
    (mod 12) divides m to a power = -1 (mod q), for each anchor q of FAMILIES.
    """
    classes = odd = divides = tripped = 0
    for p, e in fac.factors:
        bit = 1 << p % 12
        classes |= bit
        if e & 1:
            odd |= bit
        if p % 12 == 1:
            for q, q_bit in _ANCHOR_BITS.items():
                if e % q == q - 1:
                    tripped |= q_bit
        divides |= _ANCHOR_BITS.get(p, 0)
    return len(fac.factors) == 1, classes, odd, divides & ~tripped


def _verdict(flags: tuple[bool, ...]) -> tuple[str, tuple[str, ...]]:
    """(predicted, explanation) for the flags of _ZERO_RULES + _NONZERO_RULES, in order.

    ConsistencyError when a zero rule and a nonzero rule both hold.
    """
    zero_hits = tuple(name for name, flag in zip(_ZERO_RULES, flags) if flag)
    nonzero_hits = tuple(name for name, flag
                         in zip(_NONZERO_RULES, flags[len(_ZERO_RULES):]) if flag)
    if zero_hits and nonzero_hits:
        raise ConsistencyError(f"contradictory predictions: {zero_hits} vs {nonzero_hits}")
    predicted = (PREDICT_ZERO if zero_hits
                 else PREDICT_NONZERO if nonzero_hits else PREDICT_NONE)
    return predicted, zero_hits + nonzero_hits


@functools.cache
def _rules(state: tuple[bool, int, int, int]) -> tuple[tuple[bool, ...], tuple[str, tuple]]:
    """ConditionProfile's nine flags in field order, and (predicted, explanation), of a state."""
    single, classes, odd, anchored = state
    witness = classes & ~_C11 != 0
    no_3_mod_4, no_2_mod_3 = not odd & (_C7 | _C11), not odd & (_C5 | _C11)
    even_shape = not odd & (_C5 | _C7 | _C11)
    cond_i = not (no_3_mod_4 or no_2_mod_3)
    n1, n2 = witness and no_3_mod_4, witness and no_2_mod_3
    if cond_i and (n1 or n2):  # impossible: the flag computation itself is broken
        raise ConsistencyError("cond I with N1/N2")
    zero = (cond_i, not odd and classes == _C11)
    nonzero = (single and witness, odd & _C5 != 0 and no_3_mod_4,
               *(even_shape and anchored & bit != 0 for bit in _ANCHOR_BITS.values()),
               odd & _C7 != 0 and no_2_mod_3)
    return zero + (n1, n2) + nonzero, _verdict(zero + nonzero)


def _evaluate(n: int, fac: Factorization | None) -> tuple[ConditionProfile, int, tuple, int]:
    """Profile, p26(n), verdict and anchor mask, all from fac or else factorize(12n + 13)."""
    if n < 0:
        raise ValueError(f"expected n >= 0, got {n}")
    if fac is None:
        fac = factorize(12 * n + 13)
    state = _class_state(fac)
    try:
        flags, verdict = _rules(state)
    except ConsistencyError as exc:
        raise ConsistencyError(f"{exc} at n={n}") from None
    return ConditionProfile(n, fac.value, fac, *flags), hecke.p26_cm(n, fac), verdict, state[3]


def apply_theorems(n: int, fac: Factorization | None = None) -> VanishingReport:
    """Predict zero/nonzero where a condition applies and reconcile with p26_cm.

    fac, if given, is the factorization of 12n + 13.
    """
    prof, value, verdict, _ = _evaluate(n, fac)
    return VanishingReport(prof, value, *verdict)


def check_family(mult: int, n: int, fac: Factorization | None = None) -> VanishingReport:
    """Vanishing biconditional for p26(mult*n + offset), gated on 12n + 1.

    mult is a key of FAMILIES, q = FAMILIES[mult], offset = (mult - 13) // 12.
    Applicable when no prime = 1 (mod 12) divides 12n + 1 to a power
    = -1 (mod q); then p26(mult*n + offset) = 0 exactly when 12n + 1
    satisfies cond I.  Outside the gate there is no prediction.  Both are
    read off the one walk over m = 12(mult*n + offset) + 13 = q^2 (12n + 1)
    (fac, if given, is its factorization): as q != 1 (mod 12), m has the
    primes = 1 (mod 12) of 12n + 1 with the same exponents, every exponent
    keeps its parity, and q | m, so m's anchor bit for q is the gate.
    """
    if mult not in FAMILIES:
        raise ValueError(f"unknown family {mult}; expected one of {list(FAMILIES)}")
    if n < 0:
        raise ValueError("check_family expects n >= 0")
    q, offset = FAMILIES[mult], (mult - 13) // 12
    prof, value, _, anchored = _evaluate(mult * n + offset, fac)
    if not anchored & _ANCHOR_BITS[q]:
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
