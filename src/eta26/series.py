"""q-series oracle: expand prod(1 - q^m)^r to a target order.

f = g^r, with g = prod(1 - q^m) the sparse pentagonal series, follows
from g f' = r g' f (Euler, J.C.P. Miller; Knuth, TAOCP vol. 2, 4.7):
n f_n = sum over k >= 1 with g_k != 0 of ((r + 1) k - n) g_k f_(n-k).
Order N costs O(N^1.5) exact integer operations for any r, and every
division by n is checked.  The expansion exists to cross-validate the
closed-form evaluation in hecke: the two paths share no code and no
conventions, so agreement is meaningful.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

from .errors import ConsistencyError, SeriesBudgetError

DEFAULT_BUDGET_MB = 512
# Recurrence terms one expansion may sum: about a minute at r = 26 on a
# 2-vCPU x86-64 VM under CPython 3.11, at 5e6-6e6 terms/s (order 40000 is
# 8.7e6 terms in 1.5 s; order 513430, 4e8 terms, took 81 s).  The budget
# admits orders up to 423863.
TERM_BUDGET = 300_000_000


@dataclass(frozen=True)
class PowerSeries:
    """Dense coefficients c_0..c_order of prod(1 - q^m)^r mod q^(order+1)."""

    r: int
    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coeffs length must be order + 1")

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i]


def _pentagonal_terms(order: int) -> list[tuple[int, int]]:
    """The nonzero (k, g_k) with k <= order of prod(1 - q^m), k ascending.

    Euler: prod(1 - q^m) = sum_j (-1)^j q^(j(3j +/- 1)/2), O(sqrt(order)) terms.
    """
    return [(0, 1)] + [(k, -1 if j % 2 else 1) for j in range(1, math.isqrt(order) + 2)
                       for k in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if k <= order]


def _recurrence_terms(order: int) -> int:
    """Terms the recurrence sums up to order: the sum of order - k + 1 over
    the nonzero pentagonal k with 0 < k <= order, in O(sqrt(order)) steps."""
    return sum(order - k + 1 for k, _ in _pentagonal_terms(order)[1:])


def _check_budget(total: int, budget_mb: int, context: str) -> None:
    if total > budget_mb * 1024 * 1024:
        raise SeriesBudgetError(
            f"{context}: coefficient table needs ~{total // (1024 * 1024) + 1} MiB, "
            f"budget is {budget_mb} MiB"
        )


def eta_power_series(r: int, order: int, budget_mb: int = DEFAULT_BUDGET_MB) -> PowerSeries:
    """Exact coefficients of prod(1 - q^m)^r mod q^(order+1).

    Solves n f_n = sum_k ((r + 1) k - n) g_k f_(n-k) for f_1..f_order,
    summing over the nonzero pentagonal coefficients g_k, k >= 1; the
    cost is O(order * sqrt(order)) big-integer operations for any r.
    Each division by n is checked, and a nonzero remainder raises
    ConsistencyError.  Before anything is allocated, the size of an
    all-zero table of order + 1 entries is checked against budget_mb;
    a running byte count then follows the table as each coefficient is
    stored, and SeriesBudgetError is raised as soon as it passes budget_mb.
    The number of recurrence terms is fixed by order alone, and an order
    that needs more than TERM_BUDGET of them raises SeriesBudgetError
    before the loop starts.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    context = f"eta_power_series(r={r}, order={order})"
    # [0] * (order + 1): one pointer and one small int per entry
    zero = sys.getsizeof(0)
    total = sys.getsizeof([]) + (order + 1) * (struct.calcsize("P") + zero)
    _check_budget(total, budget_mb, context)
    terms = _recurrence_terms(order)
    if terms > TERM_BUDGET:
        raise SeriesBudgetError(
            f"{context}: recurrence needs {terms} terms, budget is {TERM_BUDGET} terms"
        )
    pent = _pentagonal_terms(order)[1:]
    f = [0] * (order + 1)
    f[0] = 1
    for n in range(1, order + 1):
        s = 0
        for k, g in pent:
            if k > n:
                break
            s += ((r + 1) * k - n) * g * f[n - k]
        c, rem = divmod(s, n)
        if rem:
            raise ConsistencyError(
                f"{context}: inexact division at n={n}: {s} = {n} * {c} + {rem}"
            )
        f[n] = c
        total += sys.getsizeof(c) - zero
        _check_budget(total, budget_mb, context)
    return PowerSeries(r, order, tuple(f))


def p26_oracle(n: int) -> int:
    """p26(n) read off the q-series expansion of prod(1 - q^m)^26."""
    if n < 0:
        raise ValueError("p26_oracle expects n >= 0")
    return eta_power_series(26, n)[n]

